"""Bridging kernels to the simulated runtime: spec builders and runners.

Builds :class:`~repro.oneapi.kernelspec.KernelSpec` objects for the
Boris push under the paper's two scenarios, in either layout and
precision, and provides :class:`PushEngine`, which drives the *real*
numpy kernels through a :class:`~repro.oneapi.queue.Queue` so each
step produces both physics and a simulated launch time.

Two spec flavours:

* *bound* specs (:func:`build_push_spec`) reference the live USM
  allocations of an actual ensemble, enabling genuine first-touch NUMA
  accounting while the kernels run;
* *virtual* specs (:func:`build_virtual_push_spec`) describe the
  paper's full 1e7-particle working set without allocating it — used
  by the table/figure harnesses where only timing matters.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.kernels import (BORIS_FLOPS, DIAGNOSTIC_FLOPS,
                            FIELD_STAGE_FLOPS, GAMMA_FLOPS, POSITION_FLOPS,
                            boris_push_precalculated,
                            kinetic_energy_diagnostic, sample_fields)
from ..errors import ConfigurationError
from ..fields.base import FieldSource
from ..fields.precalculated import PrecalculatedField
from ..fp import Precision
from ..observability.tracer import trace_span
from ..resilience.faults import active_fault_injector
from ..particles.ensemble import Layout, ParticleEnsemble
from .graph import GraphExecutor, KernelGraph, KernelNode
from .kernelspec import KernelSpec, MemoryStream, StreamKind
from .memory import UsmMemoryManager
from .queue import KernelLaunchRecord, Queue

__all__ = ["PUSH_FLOPS", "build_push_spec", "build_virtual_push_spec",
           "build_field_eval_spec", "build_diagnostics_spec",
           "build_virtual_field_eval_spec", "build_virtual_diagnostics_spec",
           "build_virtual_step_graph", "PushEngine"]

#: Arithmetic of the Boris push per particle-step (single-precision
#: equivalent flops): momentum update + two gamma evaluations +
#: position drift.
PUSH_FLOPS = BORIS_FLOPS + 2 * GAMMA_FLOPS + POSITION_FLOPS

#: Scenario labels (the paper's two benchmark problems).
PRECALCULATED = "precalculated"
ANALYTICAL = "analytical"
SCENARIOS = (PRECALCULATED, ANALYTICAL)

#: Components the push kernel reads and writes in SoA layout.
_SOA_READ_WRITE = ("x", "y", "z", "px", "py", "pz")


def _check_scenario(scenario: str) -> None:
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"scenario must be one of {SCENARIOS}, got {scenario!r}")


def _particle_streams(layout: Layout, precision: Precision,
                      n: int, memory: Optional[UsmMemoryManager],
                      ensemble: Optional[ParticleEnsemble]):
    """Memory streams for the particle data in the given layout."""
    fp = precision.itemsize
    streams = []
    if layout is Layout.AOS:
        if ensemble is not None and memory is not None:
            allocation = memory.register(ensemble.records,  # type: ignore[attr-defined]
                                         name="particles-aos")
        elif memory is not None:
            allocation = memory.virtual(
                n * precision.particle_bytes_aligned, name="particles-aos")
        else:
            allocation = None
        streams.append(MemoryStream(
            name="particles-aos", kind=StreamKind.READ_WRITE,
            bytes_per_item=precision.particle_bytes,
            span_bytes_per_item=precision.particle_bytes_aligned,
            contiguous=False, allocation=allocation))
        return streams

    def alloc(name, component, nbytes):
        if ensemble is not None and memory is not None:
            return memory.register(ensemble.component(component)
                                   if component != "type"
                                   else ensemble.type_ids, name=name)
        if memory is not None:
            return memory.virtual(nbytes, name=name)
        return None

    for component in _SOA_READ_WRITE:
        streams.append(MemoryStream(
            name=f"soa-{component}", kind=StreamKind.READ_WRITE,
            bytes_per_item=fp, contiguous=True,
            allocation=alloc(f"soa-{component}", component, n * fp)))
    streams.append(MemoryStream(
        name="soa-gamma", kind=StreamKind.WRITE, bytes_per_item=fp,
        contiguous=True,
        allocation=alloc("soa-gamma", "gamma", n * fp)))
    streams.append(MemoryStream(
        name="soa-type", kind=StreamKind.READ, bytes_per_item=2,
        contiguous=True, allocation=alloc("soa-type", "type", n * 2)))
    return streams


def _field_streams(layout: Layout, precision: Precision, n: int,
                   memory: Optional[UsmMemoryManager],
                   precalc: Optional[PrecalculatedField]):
    """Memory streams for the precalculated field arrays."""
    fp = precision.itemsize
    if layout is Layout.AOS:
        if precalc is not None and memory is not None:
            # The AoS PrecalculatedField stores one structured array.
            allocation = memory.register(precalc.component("ex"),
                                         name="fields-aos")
        elif memory is not None:
            allocation = memory.virtual(n * 6 * fp, name="fields-aos")
        else:
            allocation = None
        return [MemoryStream(
            name="fields-aos", kind=StreamKind.READ,
            bytes_per_item=6 * fp, span_bytes_per_item=6 * fp,
            contiguous=False, allocation=allocation)]
    streams = []
    for component in ("ex", "ey", "ez", "bx", "by", "bz"):
        if precalc is not None and memory is not None:
            allocation = memory.register(precalc.component(component),
                                         name=f"fields-{component}")
        elif memory is not None:
            allocation = memory.virtual(n * fp, name=f"fields-{component}")
        else:
            allocation = None
        streams.append(MemoryStream(
            name=f"fields-{component}", kind=StreamKind.READ,
            bytes_per_item=fp, contiguous=True, allocation=allocation))
    return streams


def build_push_spec(ensemble: ParticleEnsemble, scenario: str,
                    memory: UsmMemoryManager,
                    precalc: Optional[PrecalculatedField] = None,
                    field_flops: float = 0.0) -> KernelSpec:
    """Kernel spec for the Boris push bound to a live ensemble.

    For the precalculated scenario pass the matching ``precalc`` array;
    for the analytical scenario pass the source's
    ``flops_per_evaluation`` as ``field_flops``.
    """
    _check_scenario(scenario)
    layout = ensemble.layout
    precision = ensemble.precision
    streams = _particle_streams(layout, precision, ensemble.size,
                                memory, ensemble)
    flops = float(PUSH_FLOPS)
    if scenario == PRECALCULATED:
        if precalc is None:
            raise ConfigurationError(
                "precalculated scenario needs the precalc field array")
        if precalc.layout is not layout or precalc.size != ensemble.size:
            raise ConfigurationError(
                "precalc array must match the ensemble's layout and size")
        streams += _field_streams(layout, precision, ensemble.size,
                                  memory, precalc)
    else:
        flops += float(field_flops)
    name = f"boris-{scenario}-{layout.value}-{precision.value}"
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=flops)


def build_virtual_push_spec(n: int, layout: Layout, precision: Precision,
                            scenario: str,
                            memory: Optional[UsmMemoryManager],
                            field_flops: float = 0.0) -> KernelSpec:
    """Kernel spec over *virtual* allocations of ``n`` particles.

    Used to model the paper's 1e7-particle runs without allocating the
    arrays; first-touch NUMA accounting still works because virtual
    allocations carry page state.  ``memory=None`` drops even the
    virtual allocations (no page state): a pure traffic/flop
    description, enough for the planning estimators and the autotuner.
    """
    _check_scenario(scenario)
    streams = _particle_streams(layout, precision, n, memory, None)
    flops = float(PUSH_FLOPS)
    if scenario == PRECALCULATED:
        streams += _field_streams(layout, precision, n, memory, None)
    else:
        flops += float(field_flops)
    name = f"boris-{scenario}-{layout.value}-{precision.value}"
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=flops)


def _field_stream_names(layout: Layout) -> tuple:
    """Names of the per-particle field streams in the given layout."""
    if layout is Layout.AOS:
        return ("fields-aos",)
    return tuple(f"fields-{c}" for c in ("ex", "ey", "ez", "bx", "by", "bz"))


def build_virtual_field_eval_spec(n: int, layout: Layout,
                                  precision: Precision,
                                  scenario: str,
                                  field_flops: float = 0.0) -> KernelSpec:
    """Allocation-free twin of :func:`build_field_eval_spec`.

    Same stream names, kinds, sizes and flops as the bound spec the
    graph path launches — so a fusion pass planning over it makes the
    same decisions — but without an ensemble or memory manager.
    """
    _check_scenario(scenario)
    fp = precision.itemsize
    streams: List[MemoryStream] = []
    if layout is Layout.AOS:
        streams.append(MemoryStream(
            name="particles-aos", kind=StreamKind.READ,
            bytes_per_item=precision.particle_bytes,
            span_bytes_per_item=precision.particle_bytes_aligned,
            contiguous=False))
    else:
        for component in ("x", "y", "z"):
            streams.append(MemoryStream(
                name=f"soa-{component}", kind=StreamKind.READ,
                bytes_per_item=fp, contiguous=True))
    for stream in _field_streams(layout, precision, n, None, None):
        streams.append(MemoryStream(
            name=stream.name, kind=StreamKind.WRITE,
            bytes_per_item=stream.bytes_per_item,
            span_bytes_per_item=stream.span_bytes_per_item,
            contiguous=stream.contiguous))
    name = f"field-eval-{scenario}-{layout.value}-{precision.value}"
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=(float(FIELD_STAGE_FLOPS)
                                      + float(field_flops)))


def build_virtual_diagnostics_spec(layout: Layout,
                                   precision: Precision) -> KernelSpec:
    """Allocation-free twin of :func:`build_diagnostics_spec`."""
    fp = precision.itemsize
    if layout is Layout.AOS:
        gamma = MemoryStream(
            name="particles-aos", kind=StreamKind.READ,
            bytes_per_item=precision.particle_bytes,
            span_bytes_per_item=precision.particle_bytes_aligned,
            contiguous=False)
    else:
        gamma = MemoryStream(name="soa-gamma", kind=StreamKind.READ,
                             bytes_per_item=fp, contiguous=True)
    energy = MemoryStream(name="diag-energy", kind=StreamKind.WRITE,
                          bytes_per_item=fp, contiguous=True)
    return KernelSpec(name=f"diag-energy-{layout.value}-{precision.value}",
                      streams=(gamma, energy),
                      flops_per_item=float(DIAGNOSTIC_FLOPS))


def build_virtual_step_graph(n: int, layout: Layout, precision: Precision,
                             scenario: str, field_flops: float = 0.0,
                             diagnostics: bool = False,
                             untimed_fields: bool = False) -> KernelGraph:
    """Timing-only :class:`KernelGraph` of one push step.

    Mirrors :meth:`PushEngine.record_graph` without constructing an
    engine: the same node order (field-eval, push, optional
    diagnostics), the same stream declarations, transient and untimed
    flags, but with no bodies and no allocations.  The autotuner plans
    fusion over this graph and prices its groups exactly as the
    executor would launch them.

    ``field_flops`` is the analytical source's per-particle evaluation
    cost (``flops_per_evaluation``); pass 0 for the precalculated
    scenario, as the engine does.  ``untimed_fields`` builds the paper
    harness's graph (the engine's ``fusion=None``): the field-eval node
    is untimed staging and the push prices its own scenario.
    """
    _check_scenario(scenario)
    graph = KernelGraph()
    graph.add(KernelNode(
        spec=build_virtual_field_eval_spec(n, layout, precision, scenario,
                                           field_flops=field_flops),
        n_items=n, layout=layout.value, precision=precision,
        transient=frozenset(_field_stream_names(layout)),
        tag="field-refresh" if untimed_fields else "field-eval",
        untimed=untimed_fields))
    graph.add(KernelNode(
        spec=build_virtual_push_spec(
            n, layout, precision,
            scenario if untimed_fields else PRECALCULATED, None,
            field_flops=field_flops),
        n_items=n, layout=layout.value, precision=precision, tag="push"))
    if diagnostics:
        graph.add(KernelNode(
            spec=build_virtual_diagnostics_spec(layout, precision),
            n_items=n, layout=layout.value, precision=precision,
            tag="diagnostics"))
    return graph


def build_field_eval_spec(ensemble: ParticleEnsemble,
                          precalc: PrecalculatedField,
                          memory: UsmMemoryManager,
                          field_flops: float = 0.0,
                          scenario: str = PRECALCULATED) -> KernelSpec:
    """Kernel spec of the field-evaluation graph node.

    Reads the particle positions, writes the six per-particle field
    components of ``precalc``.  ``field_flops`` is the per-particle
    evaluation cost (the source's ``flops_per_evaluation`` in the
    analytical scenario; ~0 for the precalculated scenario, where the
    values are given and the node is pure staging traffic).

    The position streams are declared exactly as the push node declares
    them (same names, sizes, access shape) so the fusion pass can merge
    the two nodes; the field streams are declared ``WRITE`` here and
    ``READ`` by the push — the pair fusion elides.
    """
    layout = ensemble.layout
    precision = ensemble.precision
    fp = precision.itemsize
    streams: List[MemoryStream] = []
    if layout is Layout.AOS:
        # The record stream is declared with the full particle span,
        # like the push node: reading three position members pulls the
        # whole cache-line-spanning record anyway, and identical
        # declarations are what makes the streams mergeable.
        allocation = memory.register(ensemble.records,  # type: ignore[attr-defined]
                                     name="particles-aos")
        streams.append(MemoryStream(
            name="particles-aos", kind=StreamKind.READ,
            bytes_per_item=precision.particle_bytes,
            span_bytes_per_item=precision.particle_bytes_aligned,
            contiguous=False, allocation=allocation))
    else:
        for component in ("x", "y", "z"):
            streams.append(MemoryStream(
                name=f"soa-{component}", kind=StreamKind.READ,
                bytes_per_item=fp, contiguous=True,
                allocation=memory.register(ensemble.component(component),
                                           name=f"soa-{component}")))
    for stream in _field_streams(layout, precision, ensemble.size,
                                 memory, precalc):
        streams.append(MemoryStream(
            name=stream.name, kind=StreamKind.WRITE,
            bytes_per_item=stream.bytes_per_item,
            span_bytes_per_item=stream.span_bytes_per_item,
            contiguous=stream.contiguous, allocation=stream.allocation))
    _check_scenario(scenario)
    name = f"field-eval-{scenario}-{layout.value}-{precision.value}"
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=float(FIELD_STAGE_FLOPS) + float(field_flops))


def build_diagnostics_spec(ensemble: ParticleEnsemble,
                           memory: UsmMemoryManager,
                           out: np.ndarray) -> KernelSpec:
    """Kernel spec of the kinetic-energy diagnostics graph node.

    Reads the gamma component the push stored, writes the per-particle
    energy array ``out`` — elementwise, so it fuses onto the push.
    """
    precision = ensemble.precision
    fp = precision.itemsize
    if ensemble.layout is Layout.AOS:
        gamma = MemoryStream(
            name="particles-aos", kind=StreamKind.READ,
            bytes_per_item=precision.particle_bytes,
            span_bytes_per_item=precision.particle_bytes_aligned,
            contiguous=False,
            allocation=memory.register(ensemble.records,  # type: ignore[attr-defined]
                                       name="particles-aos"))
    else:
        gamma = MemoryStream(
            name="soa-gamma", kind=StreamKind.READ, bytes_per_item=fp,
            contiguous=True,
            allocation=memory.register(ensemble.component("gamma"),
                                       name="soa-gamma"))
    energy = MemoryStream(
        name="diag-energy", kind=StreamKind.WRITE, bytes_per_item=fp,
        contiguous=True, allocation=memory.register(out, name="diag-energy"))
    name = f"diag-energy-{ensemble.layout.value}-{precision.value}"
    return KernelSpec(name=name, streams=(gamma, energy),
                      flops_per_item=float(DIAGNOSTIC_FLOPS))


class PushEngine:
    """Drives real Boris steps through a queue, one kernel graph per step.

    Each step is recorded as a :class:`~repro.oneapi.graph.KernelGraph`
    — a field-eval node staging the six per-particle field components,
    the push node loading them, and (with ``diagnostics=True``) a
    kinetic-energy node — and executed by a
    :class:`~repro.oneapi.graph.GraphExecutor`.  ``fusion`` picks what
    the simulated clock sees:

    * ``None`` (the default) — the paper's harness: the field-eval node
      is an *untimed* staging node (the between-launch field refresh
      the paper keeps off the clock), so the push is the step's one
      timed kernel.  In the analytical scenario the push carries the
      source's field flops and no field traffic, as the paper's
      in-kernel evaluation does.
    * ``False`` — every node is timed and launches separately (the
      fusion baseline).
    * ``True`` — the cost-model-driven pass merges the nodes, eliding
      the staged field arrays.

    All three run identical kernel bodies in identical order, so their
    state is bit-identical.

    Args:
        queue: The simulated queue (device + runtime + scheduling).
        ensemble: The particle ensemble to advance.
        scenario: "precalculated" or "analytical".
        source: The analytical field source, sampled into the
            per-particle field array every step.
        dt: Time step [s].
        fusion: None = paper harness (untimed field refresh);
            True/False = timed field-eval node, fusion pass on/off.
        diagnostics: Record the kinetic-energy node.
    """

    def __init__(self, queue: Queue, ensemble: ParticleEnsemble,
                 scenario: str, source: FieldSource, dt: float,
                 fusion: Optional[bool] = None,
                 diagnostics: bool = False) -> None:
        _check_scenario(scenario)
        self.queue = queue
        self.ensemble = ensemble
        self.scenario = scenario
        self.source = source
        self.dt = float(dt)
        self.time = 0.0
        self.fusion = fusion
        self.diagnostics = bool(diagnostics)
        #: The field refresh is staging work off the simulated clock.
        self.untimed_fields = fusion is None
        #: Simulated seconds of each completed step — a step can span
        #: several launches, so per-record NSPS would undercount it;
        #: consumers (the facade, the fusion bench) average this.
        self.step_seconds: List[float] = []
        self.precalc = PrecalculatedField(ensemble.size, ensemble.precision,
                                          ensemble.layout)
        field_flops = (source.flops_per_evaluation
                       if scenario == ANALYTICAL else 0.0)
        self._field_spec = build_field_eval_spec(
            ensemble, self.precalc, queue.memory, field_flops=field_flops,
            scenario=scenario)
        # The timed graph stages fields in both scenarios, so its push
        # always loads them; the harness push prices its own scenario.
        push_scenario = scenario if self.untimed_fields else PRECALCULATED
        self.spec = build_push_spec(ensemble, push_scenario, queue.memory,
                                    precalc=self.precalc,
                                    field_flops=field_flops)
        self.diag_energy: Optional[np.ndarray] = None
        if self.diagnostics:
            self.diag_energy = np.zeros(ensemble.size,
                                        dtype=ensemble.precision.dtype)
            self._diag_spec = build_diagnostics_spec(
                ensemble, queue.memory, self.diag_energy)
        self.executor = GraphExecutor(queue, fusion=bool(fusion))

    # -- graph recording ---------------------------------------------------

    def record_graph(self) -> KernelGraph:
        """Record this step's kernel graph."""
        ensemble = self.ensemble
        layout = ensemble.layout.value
        precision = ensemble.precision
        time_now = self.time
        graph = KernelGraph()
        graph.add(KernelNode(
            spec=self._field_spec, n_items=ensemble.size,
            body=lambda: sample_fields(self.precalc, self.source,
                                       ensemble, time_now),
            layout=layout, precision=precision,
            transient=frozenset(_field_stream_names(ensemble.layout)),
            tag="field-refresh" if self.untimed_fields else "field-eval",
            untimed=self.untimed_fields))
        graph.add(KernelNode(
            spec=self.spec, n_items=ensemble.size,
            body=lambda: boris_push_precalculated(ensemble, self.precalc,
                                                  self.dt),
            layout=layout, precision=precision, tag="push"))
        if self.diagnostics:
            graph.add(KernelNode(
                spec=self._diag_spec, n_items=ensemble.size,
                body=lambda: kinetic_energy_diagnostic(ensemble,
                                                       self.diag_energy),
                layout=layout, precision=precision, tag="diagnostics"))
        return graph

    def step(self, depends_on=None) -> KernelLaunchRecord:
        """One push step: the recorded graph through the executor.

        ``depends_on`` (a list of :class:`~repro.oneapi.events.SimEvent`)
        orders the launch after other commands on an out-of-order queue
        — the sharded runner uses it to serialize a shard's successive
        pushes while letting exchange commands overlap them.

        Under an active tracer the step appears as a ``runner``-category
        span; an untimed field refresh is a nested child span — making
        visible the host work the simulated clock deliberately excludes.

        Under an active fault injector the step is a device-loss
        opportunity: the injector may kill the whole device here
        (:class:`~repro.errors.DeviceLostError`), *before* any particle
        state changes, so a fallback runner can resume cleanly.
        """
        injector = active_fault_injector()
        if injector is not None:
            injector.on_device_step(self.queue.device.name)
        with trace_span(f"push-step:{self.scenario}", "runner",
                        step_time=self.time):
            records = self.executor.run(self.record_graph(),
                                        depends_on=depends_on)
        self.time += self.dt
        self.step_seconds.append(sum(r.simulated_seconds for r in records))
        # The last record's event is the step's completion — what
        # dependency chaining (the sharded runner) needs.
        return records[-1]

    def run(self, steps: int):
        """Run ``steps`` pushes; returns the list of launch records."""
        return [self.step() for _ in range(steps)]

    def queues(self) -> tuple:
        """Every queue this engine submits to (uniform across engines).

        The validation layer replays each returned queue's command log
        through the hazard detector; all three engines expose the same
        method so callers need not know the engine shape.
        """
        return (self.queue,)
