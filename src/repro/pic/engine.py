"""The PIC loop lowered onto the kernel-graph IR.

:class:`PicEngine` drives a :class:`~repro.pic.simulation.PicSimulation`
through a simulated :class:`~repro.oneapi.queue.Queue`, recording every
step as a :class:`~repro.oneapi.graph.KernelGraph`:

* **gather** — interpolate E and B from the Yee grid to per-particle
  arrays (elementwise; its output streams are declared ``transient``
  so a fused group carries them in registers);
* **push** — the Boris push over the gathered fields (elementwise);
* **Monte Carlo operators** — collisions / field ionization
  (elementwise, counter-based RNG — see :mod:`repro.pic.montecarlo`);
* **deposit** — current deposition + the periodic position wrap
  (a *barrier* node: scatter-add has cross-particle dependencies, so
  nothing fuses across it — the canonical barrier kernel of the graph
  IR's docstring);
* **field-advance** — the Maxwell solve over the grid cells (barrier).

Because the executor runs node bodies in recorded order whether or not
launches are fused, fused and unfused runs are bit-exact; because the
Monte Carlo draws are keyed on the logical step, they also match the
host-side reference :meth:`~repro.pic.simulation.PicSimulation.step`
to the bit.  The declared read/write sets make the whole step
visible to the fusion pass, the hazard detector, the roofline
analyzer, tracing and fault injection — the same machinery the push
engines enjoy.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np

from ..fields.interpolation import interpolate_from_yee_grid
from ..observability.tracer import trace_span
from ..oneapi.graph import GraphExecutor, KernelGraph, KernelNode
from ..oneapi.kernelspec import KernelSpec, MemoryStream, StreamKind
from ..oneapi.queue import Queue
from ..oneapi.runtime import PUSH_FLOPS
from ..particles.ensemble import COMPONENTS, Layout, ParticleEnsemble
from ..resilience.faults import active_fault_injector
from .deposition import deposit_current_direct, deposit_current_esirkepov
from .simulation import PicSimulation

__all__ = ["GATHER_FLOPS", "DEPOSIT_FLOPS", "ADVANCE_FLOPS",
           "pic_state_digest", "build_gather_spec", "build_push_spec",
           "build_operator_spec", "build_deposit_spec",
           "build_advance_spec", "PicEngine"]

#: Arithmetic per particle of the six-component staggered gather
#: (support^3 weighted sum per component, CIC support assumed for the
#: estimate; the builders scale by the actual support).
GATHER_FLOPS = 5.0
#: Arithmetic per particle of the Esirkepov window scatter (per window
#: point); the builders scale by the window volume.
DEPOSIT_FLOPS = 14.0
#: Arithmetic per grid cell of one FDTD leapfrog step.
ADVANCE_FLOPS = {"fdtd": 36.0, "spectral": 220.0}

#: The six per-particle gathered field components.
_FIELD_COMPONENTS = ("ex", "ey", "ez", "bx", "by", "bz")


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


def _aos_stream(ensemble: ParticleEnsemble, memory, kind: StreamKind,
                suffix: str) -> MemoryStream:
    precision = ensemble.precision
    name = f"particles-aos{suffix}"
    allocation = memory.register(ensemble.records, name=name) \
        if memory is not None else None
    return MemoryStream(
        name=name, kind=kind, bytes_per_item=precision.particle_bytes,
        span_bytes_per_item=precision.particle_bytes_aligned,
        contiguous=False, allocation=allocation)


def _soa_stream(ensemble: ParticleEnsemble, memory, component: str,
                kind: StreamKind, suffix: str) -> MemoryStream:
    name = f"soa-{component}{suffix}"
    if component == "type":
        array, nbytes = ensemble.type_ids, 2
    else:
        array, nbytes = ensemble.component(component), \
            ensemble.precision.itemsize
    allocation = memory.register(array, name=name) \
        if memory is not None else None
    return MemoryStream(name=name, kind=kind, bytes_per_item=nbytes,
                        contiguous=True, allocation=allocation)


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


def _particle_streams(ensemble: ParticleEnsemble, memory, suffix: str,
                      read_write, read=(), write=()) -> List[MemoryStream]:
    """Particle streams in the ensemble's layout.

    In AoS every access touches the one record stream (strided); the
    strongest requested kind wins.  In SoA each component is its own
    contiguous stream with its own kind.
    """
    if ensemble.layout is Layout.AOS:
        if read_write or (read and write):
            kind = StreamKind.READ_WRITE
        elif write:
            kind = StreamKind.WRITE
        else:
            kind = StreamKind.READ
        return [_aos_stream(ensemble, memory, kind, suffix)]
    streams = []
    for component in read_write:
        streams.append(_soa_stream(ensemble, memory, component,
                                   StreamKind.READ_WRITE, suffix))
    for component in read:
        streams.append(_soa_stream(ensemble, memory, component,
                                   StreamKind.READ, suffix))
    for component in write:
        streams.append(_soa_stream(ensemble, memory, component,
                                   StreamKind.WRITE, suffix))
    return streams


# -- spec builders ---------------------------------------------------------


def build_gather_spec(ensemble: ParticleEnsemble, shape, memory,
                      suffix: str = "") -> KernelSpec:
    """Gather stage: read positions, write the six per-particle fields."""
    support = shape.support
    streams = _particle_streams(ensemble, memory, suffix, (),
                                read=("x", "y", "z"))
    streams += _gathered_field_streams(ensemble, memory, StreamKind.WRITE,
                                       suffix)
    flops = 6.0 * support ** 3 * GATHER_FLOPS + 15.0
    name = (f"pic-gather-{shape.name.lower()}-{ensemble.layout.value}"
            f"-{ensemble.precision.value}{suffix}")
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=flops)


def build_push_spec(ensemble: ParticleEnsemble, memory,
                    suffix: str = "") -> KernelSpec:
    """Push stage: Boris rotation over the gathered per-particle fields."""
    streams = _particle_streams(
        ensemble, memory, suffix,
        ("x", "y", "z", "px", "py", "pz"),
        read=("type",), write=("gamma",))
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
    streams = _particle_streams(ensemble, memory, suffix,
                                tuple(read_write))
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
    streams = _particle_streams(
        ensemble, memory, suffix, ("x", "y", "z"),
        read=("px", "py", "pz", "gamma", "weight", "type"))
    streams += _grid_streams(grid, memory, ("jx", "jy", "jz"),
                             StreamKind.READ_WRITE,
                             bytes_per_item=width ** 3 * 8.0,
                             contiguous=False)
    flops = 3.0 * width ** 3 * DEPOSIT_FLOPS + 30.0
    name = (f"pic-deposit-{deposition}-{ensemble.layout.value}"
            f"-{ensemble.precision.value}{suffix}")
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=flops)


def build_advance_spec(grid, solver_kind: str, memory) -> KernelSpec:
    """Field-advance stage: the Maxwell solve over the grid (barrier)."""
    streams = _grid_streams(grid, memory, ("jx", "jy", "jz"),
                            StreamKind.READ, bytes_per_item=8.0)
    streams += _grid_streams(grid, memory, _FIELD_COMPONENTS,
                             StreamKind.READ_WRITE, bytes_per_item=8.0)
    return KernelSpec(name=f"pic-advance-{solver_kind}",
                      streams=tuple(streams),
                      flops_per_item=float(ADVANCE_FLOPS[solver_kind]))


class _SpeciesPlan:
    """The per-ensemble specs of one step (built once, launched often)."""

    def __init__(self, engine: "PicEngine", species: int,
                 ensemble: ParticleEnsemble) -> None:
        simulation = engine.simulation
        memory = engine.queue.memory
        suffix = _suffix(species, len(simulation.ensembles))
        shape = simulation.interpolation
        self.ensemble = ensemble
        self.suffix = suffix
        self.gather = build_gather_spec(ensemble, shape, memory, suffix)
        self.push = build_push_spec(ensemble, memory, suffix)
        self.operators = [
            (operator, build_operator_spec(ensemble, operator, memory,
                                           suffix))
            for operator in simulation.operators]
        self.deposit = None
        if simulation.deposition != "none":
            self.deposit = build_deposit_spec(
                ensemble, simulation.deposition, shape, simulation.grid,
                memory, suffix)
        self.transient = frozenset(
            f"pic-fields-{c}{suffix}" for c in _FIELD_COMPONENTS)


class PicEngine:
    """Drives real PIC steps through a queue.

    Each step is recorded as a :class:`~repro.oneapi.graph.KernelGraph`
    and run through a :class:`~repro.oneapi.graph.GraphExecutor`; with
    fusion on, gather + push + Monte Carlo operators merge into one
    launch per species (the deposit and field-advance barriers never
    fuse), with fusion off every stage launches separately.

    Both modes run identical stage bodies in identical order, so their
    final state digests (:func:`pic_state_digest`) are equal.

    Args:
        queue: The simulated queue (device + runtime + scheduling).
        simulation: The PIC loop to lower; its ensembles, grid, solver
            and Monte Carlo operators are used in place.
        fusion: Run the fusion pass over every step's graph.
        validate: Replay every step's launches through the hazard
            detector.
    """

    def __init__(self, queue: Queue, simulation: PicSimulation,
                 fusion: bool = True, validate: bool = False) -> None:
        self.queue = queue
        self.simulation = simulation
        self.fusion = bool(fusion)
        self.step_seconds: List[float] = []
        count = len(simulation.ensembles)
        self._gathered: List = [None] * count
        self._old_positions: List = [None] * count
        self._species = [_SpeciesPlan(self, i, ensemble)
                         for i, ensemble in
                         enumerate(simulation.ensembles)]
        self._advance_spec = build_advance_spec(
            simulation.grid, simulation.solver_kind, queue.memory)
        self.executor = GraphExecutor(queue, fusion=self.fusion,
                                      validate=validate)

    @property
    def time(self) -> float:
        """Current simulation time [s]."""
        return self.simulation.time

    # -- stage bodies ------------------------------------------------------

    def _gather_body(self, species: int):
        simulation = self.simulation
        ensemble = simulation.ensembles[species]

        def body() -> None:
            self._gathered[species] = interpolate_from_yee_grid(
                simulation.grid, ensemble.positions(),
                simulation.interpolation)
        return body

    def _push_body(self, species: int):
        simulation = self.simulation
        ensemble = simulation.ensembles[species]

        def body() -> None:
            self._old_positions[species] = ensemble.positions()
            simulation.pusher.push(ensemble, self._gathered[species],
                                   simulation.dt)
        return body

    def _operator_body(self, species: int, operator, step: int):
        simulation = self.simulation
        ensemble = simulation.ensembles[species]

        def body() -> None:
            operator.apply(ensemble, self._gathered[species], step,
                           simulation.dt, stream=species)
        return body

    def _deposit_body(self, species: int):
        simulation = self.simulation
        ensemble = simulation.ensembles[species]

        def body() -> None:
            if simulation.deposition == "esirkepov":
                deposit_current_esirkepov(
                    simulation.grid, ensemble,
                    self._old_positions[species], simulation.dt,
                    shape=simulation.interpolation)
            elif simulation.deposition == "direct":
                deposit_current_direct(simulation.grid, ensemble,
                                       shape=simulation.interpolation)
            simulation._wrap(ensemble)
        return body

    # -- graph recording ---------------------------------------------------

    def record_graph(self) -> KernelGraph:
        """Record one step's kernel graph."""
        simulation = self.simulation
        step = simulation.step_count
        graph = KernelGraph()
        for species, plan in enumerate(self._species):
            ensemble = plan.ensemble
            layout = ensemble.layout.value
            precision = ensemble.precision
            graph.add(KernelNode(
                spec=plan.gather, n_items=ensemble.size,
                body=self._gather_body(species), layout=layout,
                precision=precision, transient=plan.transient,
                tag="gather"))
            graph.add(KernelNode(
                spec=plan.push, n_items=ensemble.size,
                body=self._push_body(species), layout=layout,
                precision=precision, tag="push"))
            for operator, spec in plan.operators:
                graph.add(KernelNode(
                    spec=spec, n_items=ensemble.size,
                    body=self._operator_body(species, operator, step),
                    layout=layout, precision=precision,
                    tag=f"mc:{operator.tag}"))
            if plan.deposit is not None:
                graph.add(KernelNode(
                    spec=plan.deposit, n_items=ensemble.size,
                    body=self._deposit_body(species), layout=layout,
                    precision=precision, barrier=True, tag="deposit"))
        graph.add(KernelNode(
            spec=self._advance_spec,
            n_items=simulation.grid.num_cells,
            body=simulation.solver.step, layout="grid",
            barrier=True, tag="field-advance"))
        return graph

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
            records = self.executor.run(self.record_graph(),
                                        depends_on=depends_on)
        simulation.step_count += 1
        self.step_seconds.append(
            sum(r.simulated_seconds for r in records))
        return records[-1]

    def run(self, steps: int):
        """Run ``steps`` full PIC steps; returns the last records."""
        return [self.step() for _ in range(steps)]

    def queues(self) -> tuple:
        """Every queue this engine submits to (uniform across engines)."""
        return (self.queue,)
