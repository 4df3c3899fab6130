"""Bridging kernels to the simulated runtime: the push step and its engine.

Builds the :class:`~repro.oneapi.kernelspec.KernelSpec` of each kernel
of one Boris push step (field evaluation, push, kinetic-energy
diagnostics) under the paper's two scenarios, in either layout and
precision; lays them out as the step's
:class:`~repro.oneapi.graph.KernelGraph` (:func:`build_step_graph`);
and provides :class:`PushEngine`, which records that graph once and
replays it, driving the *real* numpy kernels through a
:class:`~repro.oneapi.queue.Queue` so each step produces both physics
and a simulated launch time.

Each kernel has one builder, whatever the caller, and every builder of
either engine (this module's and :mod:`repro.pic.engine`'s) declares
its particle data through :func:`particle_streams`; the arguments
decide what a stream's allocation is (:func:`_allocation`):

* ``memory`` plus the live ``ensemble`` (and its ``precalc`` field
  array): the streams reference registered USM allocations, enabling
  genuine first-touch NUMA accounting while the kernels run — the
  engine's graph;
* ``memory`` alone: *virtual* allocations describe the paper's full
  1e7-particle working set without allocating it — the table/figure
  harnesses, where only timing matters;
* neither: no allocations, a pure traffic/flop description — the
  planning estimators and the autotuner.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce
from typing import Dict, List, Optional

import numpy as np

from ..core.kernels import (BORIS_FLOPS, DIAGNOSTIC_FLOPS,
                            FIELD_STAGE_FLOPS, GAMMA_FLOPS, POSITION_FLOPS,
                            boris_push_precalculated,
                            kinetic_energy_diagnostic, sample_fields)
from ..errors import ConfigurationError
from ..fields.base import FieldSource
from ..fields.precalculated import FIELD_COMPONENTS, PrecalculatedField
from ..fp import Precision
from ..observability.tracer import trace_span
from ..resilience.faults import active_fault_injector
from ..particles.ensemble import Layout, ParticleEnsemble
from .graph import GraphExecutor, KernelGraph, KernelNode, merge_kinds
from .kernelspec import KernelSpec, MemoryStream, StreamKind
from .memory import UsmAllocation, UsmMemoryManager
from .queue import KernelLaunchRecord, Queue

__all__ = ["PUSH_FLOPS", "FUSION_LABELS", "particle_streams",
           "build_push_spec", "build_step_graph", "PushEngine"]

#: Arithmetic of the Boris push per particle-step (single-precision
#: equivalent flops): momentum update + two gamma evaluations +
#: position drift.
PUSH_FLOPS = BORIS_FLOPS + 2 * GAMMA_FLOPS + POSITION_FLOPS

#: Label of each ``fusion`` mode (:class:`PushEngine`): the paper
#: harness, every node launched separately, the fusion pass on.
FUSION_LABELS = {None: "legacy", False: "unfused", True: "fused"}

#: Scenario labels (the paper's two benchmark problems).
PRECALCULATED = "precalculated"
ANALYTICAL = "analytical"
SCENARIOS = (PRECALCULATED, ANALYTICAL)

#: Components each kernel of the step touches, with its access.
_PUSH_KINDS = {**dict.fromkeys(("x", "y", "z", "px", "py", "pz"),
                               StreamKind.READ_WRITE),
               "gamma": StreamKind.WRITE, "type": StreamKind.READ}
_FIELD_EVAL_KINDS = dict.fromkeys(("x", "y", "z"), StreamKind.READ)
_DIAGNOSTICS_KINDS = {"gamma": StreamKind.READ}


def _check_step(n: int, layout: Layout, precision: Precision,
                scenario: str, ensemble: Optional[ParticleEnsemble]) -> None:
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if ensemble is not None and (ensemble.size != n
                                 or ensemble.layout is not layout
                                 or ensemble.precision is not precision):
        raise ConfigurationError(
            "ensemble must match the spec's size, layout and precision")


def _allocation(memory: Optional[UsmMemoryManager], name: str,
                array: Optional[np.ndarray],
                nbytes: int) -> Optional[UsmAllocation]:
    """The allocation behind one stream.

    With ``memory`` and an ``array``: that array, registered (which is
    idempotent, so every kernel's stream over one array shares its
    allocation).  With ``memory`` alone: a virtual allocation of
    ``nbytes``.  Without ``memory``: none.
    """
    if memory is None:
        return None
    if array is not None:
        return memory.register(array, name=name)
    return memory.virtual(nbytes, name=name)


def particle_streams(kinds: Dict[str, StreamKind], n: int, layout: Layout,
                     precision: Precision,
                     memory: Optional[UsmMemoryManager] = None,
                     ensemble: Optional[ParticleEnsemble] = None,
                     suffix: str = "") -> List[MemoryStream]:
    """Streams of the particle data a kernel touches, in either layout.

    ``kinds`` maps each component the kernel touches to its access, in
    declaration order (``"type"`` is the int16 type ids).  AoS: the one
    record stream, its access ``kinds`` folded with
    :func:`~repro.oneapi.graph.merge_kinds`, declared with the full
    record span whichever members the kernel touches — reading a few
    members pulls the whole cache-line-spanning record anyway, and
    identical declarations are what makes neighbouring kernels'
    streams mergeable.  SoA: one contiguous stream per component.
    ``suffix`` keeps the streams of several ensembles in one graph
    distinct.  Allocations follow :func:`_allocation`.
    """
    if layout is Layout.AOS:
        name = f"particles-aos{suffix}"
        records = None if ensemble is None else ensemble.records  # type: ignore[attr-defined]
        return [MemoryStream(
            name=name, kind=reduce(merge_kinds, kinds.values()),
            bytes_per_item=precision.particle_bytes,
            span_bytes_per_item=precision.particle_bytes_aligned,
            contiguous=False,
            allocation=_allocation(memory, name, records,
                                   n * precision.particle_bytes_aligned))]
    streams = []
    for component, kind in kinds.items():
        name = f"soa-{component}{suffix}"
        itemsize = 2 if component == "type" else precision.itemsize
        array = None
        if ensemble is not None:
            array = (ensemble.type_ids if component == "type"
                     else ensemble.component(component))
        streams.append(MemoryStream(
            name=name, kind=kind, bytes_per_item=itemsize, contiguous=True,
            allocation=_allocation(memory, name, array, n * itemsize)))
    return streams


def _field_streams(kind: StreamKind, n: int, layout: Layout,
                   precision: Precision, memory: Optional[UsmMemoryManager],
                   ensemble: Optional[ParticleEnsemble],
                   precalc: Optional[PrecalculatedField]
                   ) -> List[MemoryStream]:
    """Streams of the six per-particle field components.

    A bound spec (``ensemble`` given) needs the matching ``precalc``.
    """
    if ensemble is not None:
        if precalc is None:
            raise ConfigurationError(
                "precalculated scenario needs the precalc field array")
        if precalc.layout is not layout or precalc.size != n:
            raise ConfigurationError(
                "precalc array must match the ensemble's layout and size")
    fp = precision.itemsize
    if layout is Layout.AOS:
        # The AoS PrecalculatedField stores one structured array.
        array = None if precalc is None else precalc.component("ex")
        return [MemoryStream(
            name="fields-aos", kind=kind,
            bytes_per_item=6 * fp, span_bytes_per_item=6 * fp,
            contiguous=False,
            allocation=_allocation(memory, "fields-aos", array, n * 6 * fp))]
    return [MemoryStream(
        name=f"fields-{component}", kind=kind, bytes_per_item=fp,
        contiguous=True,
        allocation=_allocation(
            memory, f"fields-{component}",
            None if precalc is None else precalc.component(component),
            n * fp))
        for component in FIELD_COMPONENTS]


def build_push_spec(n: int, layout: Layout, precision: Precision,
                    scenario: str,
                    memory: Optional[UsmMemoryManager] = None,
                    field_flops: float = 0.0,
                    ensemble: Optional[ParticleEnsemble] = None,
                    precalc: Optional[PrecalculatedField] = None
                    ) -> KernelSpec:
    """Kernel spec of the Boris push over ``n`` particles.

    The push reads and writes the particle data.  In the precalculated
    scenario it also loads the six per-particle field components; in
    the analytical scenario it carries the source's per-particle
    evaluation cost ``field_flops`` (``flops_per_evaluation``) instead.
    Allocations follow the module's rule: pass ``memory`` and the live
    ``ensemble`` (plus, for the precalculated scenario, its matching
    ``precalc``) for a bound spec, ``memory`` alone for a virtual one.
    """
    _check_step(n, layout, precision, scenario, ensemble)
    streams = particle_streams(_PUSH_KINDS, n, layout, precision, memory,
                               ensemble)
    flops = float(PUSH_FLOPS)
    if scenario == PRECALCULATED:
        streams += _field_streams(StreamKind.READ, n, layout, precision,
                                  memory, ensemble, precalc)
    else:
        flops += float(field_flops)
    return KernelSpec(name=f"boris-{scenario}-{layout.value}-{precision.value}",
                      streams=tuple(streams), flops_per_item=flops)


def _field_eval_spec(n: int, layout: Layout, precision: Precision,
                     scenario: str, memory: Optional[UsmMemoryManager],
                     field_flops: float,
                     ensemble: Optional[ParticleEnsemble],
                     precalc: Optional[PrecalculatedField]) -> KernelSpec:
    """Kernel spec of the field-evaluation node.

    Reads the particle positions, writes the six per-particle field
    components.  ``field_flops`` is the per-particle evaluation cost
    (the source's ``flops_per_evaluation`` in the analytical scenario;
    0 for the precalculated scenario, where the values are given and
    the node is pure staging traffic).

    The position streams carry the push's names, sizes and access
    shape, so the fusion pass can merge the two nodes; the field
    streams are ``WRITE`` here and ``READ`` in the push — the pair
    fusion elides.
    """
    streams = particle_streams(_FIELD_EVAL_KINDS, n, layout, precision,
                               memory, ensemble)
    streams += _field_streams(StreamKind.WRITE, n, layout, precision,
                              memory, ensemble, precalc)
    return KernelSpec(
        name=f"field-eval-{scenario}-{layout.value}-{precision.value}",
        streams=tuple(streams),
        flops_per_item=float(FIELD_STAGE_FLOPS) + float(field_flops))


def _diagnostics_spec(n: int, layout: Layout, precision: Precision,
                      memory: Optional[UsmMemoryManager],
                      ensemble: Optional[ParticleEnsemble],
                      out: Optional[np.ndarray]) -> KernelSpec:
    """Kernel spec of the kinetic-energy diagnostics node.

    Reads the gamma component the push stored, writes the per-particle
    energy array ``out`` — elementwise, so it fuses onto the push.
    """
    gamma, = particle_streams(_DIAGNOSTICS_KINDS, n, layout, precision,
                              memory, ensemble)
    fp = precision.itemsize
    energy = MemoryStream(
        name="diag-energy", kind=StreamKind.WRITE, bytes_per_item=fp,
        contiguous=True,
        allocation=_allocation(memory, "diag-energy", out, n * fp))
    return KernelSpec(name=f"diag-energy-{layout.value}-{precision.value}",
                      streams=(gamma, energy),
                      flops_per_item=float(DIAGNOSTIC_FLOPS))


def build_step_graph(n: int, layout: Layout, precision: Precision,
                     scenario: str, field_flops: float = 0.0,
                     diagnostics: bool = False,
                     untimed_fields: bool = False,
                     memory: Optional[UsmMemoryManager] = None,
                     ensemble: Optional[ParticleEnsemble] = None,
                     precalc: Optional[PrecalculatedField] = None,
                     diag_out: Optional[np.ndarray] = None) -> KernelGraph:
    """The :class:`KernelGraph` of one push step, without kernel bodies.

    Nodes in execution order: field evaluation, the push, and (with
    ``diagnostics``) the kinetic-energy diagnostics.  ``field_flops``
    is the analytical source's per-particle evaluation cost
    (``flops_per_evaluation``); pass 0 for the precalculated scenario.
    ``untimed_fields`` builds the paper harness's graph (the engine's
    ``fusion=None``): the field-eval node is untimed staging and the
    push prices its own scenario.  Otherwise the field-eval node is
    timed and the push loads the staged fields in both scenarios.

    :class:`PushEngine` builds its graph here once, bound to its
    ensemble (``memory``, ``ensemble``, ``precalc`` and the diagnostics
    output ``diag_out``), and attaches the bodies once; the autotuner
    plans fusion over the unbound graph and prices its groups exactly
    as the executor launches them.
    """
    _check_step(n, layout, precision, scenario, ensemble)
    field_spec = _field_eval_spec(n, layout, precision, scenario, memory,
                                  field_flops, ensemble, precalc)
    node = dict(n_items=n, layout=layout.value, precision=precision)
    graph = KernelGraph()
    graph.add(KernelNode(
        spec=field_spec,
        transient=frozenset(s.name for s in field_spec.streams
                            if s.kind is StreamKind.WRITE),
        tag="field-refresh" if untimed_fields else "field-eval",
        untimed=untimed_fields, **node))
    graph.add(KernelNode(
        spec=build_push_spec(
            n, layout, precision,
            scenario if untimed_fields else PRECALCULATED, memory,
            field_flops, ensemble, precalc),
        tag="push", **node))
    if diagnostics:
        graph.add(KernelNode(
            spec=_diagnostics_spec(n, layout, precision, memory, ensemble,
                                   diag_out),
            tag="diagnostics", **node))
    return graph


class PushEngine:
    """Drives real Boris steps through a queue by replaying one graph.

    The step is recorded once, in :attr:`graph`, as a
    :class:`~repro.oneapi.graph.KernelGraph` — a field-eval node staging
    the six per-particle field components, the push node loading them,
    and (with ``diagnostics=True``) a kinetic-energy node — and every
    step replays it through a
    :class:`~repro.oneapi.graph.GraphExecutor`, which planned it once.
    ``fusion`` picks what the simulated clock sees:

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

    The three bodies are ranged (:attr:`KernelNode.ranged
    <repro.oneapi.graph.KernelNode.ranged>`): each call runs its kernel
    on fresh zero-copy views (:meth:`ParticleEnsemble.view
    <repro.particles.ensemble.ParticleEnsemble.view>`,
    :meth:`PrecalculatedField.view
    <repro.fields.precalculated.PrecalculatedField.view>`) of one
    :data:`~repro.oneapi.graph.BLOCK_ITEMS`-particle block, so the
    executor replays each group block by block with the block's
    temporaries in cache.  Every operation of the step is elementwise
    per particle, so the state is bit-identical to whole-range calls;
    an ensemble of at most one block runs on the engine's own objects.

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
        self.diag_energy: Optional[np.ndarray] = None
        if self.diagnostics:
            self.diag_energy = np.zeros(ensemble.size,
                                        dtype=ensemble.precision.dtype)
        #: The step graph, recorded once: bound to this ensemble's USM
        #: allocations, with bodies that read the step time when they
        #: run.
        self.graph = build_step_graph(
            ensemble.size, ensemble.layout, ensemble.precision, scenario,
            field_flops=(source.flops_per_evaluation
                         if scenario == ANALYTICAL else 0.0),
            diagnostics=self.diagnostics,
            untimed_fields=self.untimed_fields, memory=queue.memory,
            ensemble=ensemble, precalc=self.precalc,
            diag_out=self.diag_energy)
        # Ranged bodies: each call makes fresh views of the block, so
        # state restored in place into the engine's arrays is always
        # what the next call sees.
        bodies = (
            lambda lo, hi: sample_fields(
                self.precalc.view(lo, hi), self.source,
                ensemble.view(lo, hi), self.time),
            lambda lo, hi: boris_push_precalculated(
                ensemble.view(lo, hi), self.precalc.view(lo, hi), self.dt),
            lambda lo, hi: kinetic_energy_diagnostic(
                ensemble.view(lo, hi), self.diag_energy[lo:hi]))
        self.graph.nodes = [replace(node, body=body, ranged=True)
                            for node, body in zip(self.graph.nodes, bodies)]
        #: The push node's spec, which retry wrappers scrub of poisoned
        #: allocations.
        self.spec = self.graph.nodes[1].spec
        self.executor = GraphExecutor(queue, self.graph, fusion=bool(fusion))

    def step(self, depends_on=None) -> KernelLaunchRecord:
        """One push step: the engine's graph replayed by the executor.

        ``depends_on`` (a list of :class:`~repro.oneapi.events.SimEvent`)
        orders the launch after other commands on an out-of-order queue
        — the sharded runner uses it to serialize a shard's successive
        pushes while letting exchange commands overlap them.

        Under an active tracer the step appears as a ``runner``-category
        span; an untimed field refresh is a nested child span — making
        visible the host work the simulated clock deliberately excludes.
        The refresh runs all its blocks inside that one span, before the
        timed launches.

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
            records = self.executor.run(depends_on=depends_on)
        self.time += self.dt
        self.step_seconds.append(sum(r.simulated_seconds for r in records))
        # The last record's event is the step's completion — what
        # dependency chaining (the sharded runner) needs.
        return records[-1]

    def run(self, steps: int):
        """Run ``steps`` pushes; returns the list of launch records."""
        return [self.step() for _ in range(steps)]
