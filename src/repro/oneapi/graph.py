"""Kernel-graph IR: record a step's kernels, fuse what the model likes.

The paper's CPU results show the Boris push is bandwidth-bound — the
regime where *kernel fusion* pays: two elementwise passes over the same
particle arrays cost two trips to DRAM, one fused pass costs one, and
an intermediate produced and consumed inside the fused kernel never
touches memory at all.  Dataflow frameworks (DaCe is the canonical
example) get this by recording kernels as graph nodes with declared
read/write sets and merging compatible neighbours; this module is that
mechanism for the simulated runtime.

The pieces:

* :class:`KernelNode` — one kernel occurrence: its
  :class:`~repro.oneapi.kernelspec.KernelSpec`, the real numpy body,
  the item count, layout/precision, and the fusion-relevant flags
  (``elementwise``, ``barrier``, ``transient`` stream names);
* :class:`KernelGraph` — the ordered recording of one step's nodes,
  led by any *untimed* staging nodes (work the benchmark harness does
  off the clock, such as the paper's between-launch field refresh);
* :class:`FusionPass` — the planner: walks the graph, checks
  *legality* (both elementwise, no barrier between, same item count,
  layout and precision) and asks the
  :class:`~repro.oneapi.costmodel.CostModel` whether the merged kernel
  is actually cheaper (it can refuse, e.g. when the fused working set
  falls out of cache);
* :func:`fuse_nodes` — spec merging: shared streams are deduplicated
  (read + write of the same array becomes one read-modify-write
  stream), and *transient* intermediates — written by one node and read
  by a later node in the same group, flagged ``transient`` by their
  producer — are elided entirely (they live in registers);
* :class:`GraphExecutor` — bound to one recorded graph, plans it once
  and replays it through a :class:`~repro.oneapi.queue.Queue` every
  step: untimed staging bodies run inline first, then one launch per
  fused group, with each group's program identity
  (:class:`~repro.oneapi.programcache.ProgramKey`) charged through the
  queue's program cache.

Fusion never changes physics: a fused launch runs the node bodies in
recorded order, which is bit-identical to running them as separate
launches.  Only the *declared* memory traffic (and hence the simulated
time) changes.

*Blocked replay* is the host-side counterpart of a SYCL work-group
slice.  A node flagged ``ranged`` has a body ``body(lo, hi)`` that
handles only items ``lo`` to ``hi``; a group whose nodes are all ranged
runs block by block over :data:`BLOCK_ITEMS`-item slices, every body in
recorded order inside each block (:func:`compose_bodies`), so each
block's numpy temporaries stay in cache instead of streaming from
DRAM.  Only elementwise, barrier-free nodes may be ranged, which makes
the blocked result bit-identical to the whole-range one.  Any other
group runs each body once over the whole range, and a ranged staging
node runs block by block under its one ``runner`` span.  Blocking is
host work only: specs, plans, program keys and pricing never see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import GraphError
from ..fp import Precision
from .costmodel import CostModel
from .kernelspec import KernelSpec, MemoryStream, StreamKind
from .programcache import ProgramKey

__all__ = ["BLOCK_ITEMS", "KernelNode", "KernelGraph", "FusionPlan",
           "FusionPass", "fuse_nodes", "merge_kinds", "group_spec",
           "unfused_plan", "compose_bodies", "GraphExecutor"]

#: Items per block when a group of ranged nodes runs block by block.
#: At 16,384 items one temporary is 64 KiB in float and 128 KiB in
#: double, so a block's working set stays in cache.  On the
#: 750k-particle float push (2-vCPU host) 16k and 32k blocks ran within
#: noise of each other, 4k blocks paid more per-block interpreter
#: overhead, and whole-range temporaries were slowest.
BLOCK_ITEMS = 16_384


@dataclass
class KernelNode:
    """One recorded kernel: what it does, over how many items, and how
    it may legally combine with its neighbours.

    Attributes:
        spec: The kernel's memory/flop characterisation.
        n_items: Work items of this occurrence.
        body: The real numpy callable (None for timing-only graphs).
        layout: Particle layout label ("AoS"/"SoA"; "" = agnostic, which
            only matches itself — fusion across an unknown layout is
            never assumed legal).
        precision: Storage precision of the data the kernel touches.
        elementwise: True when item *i* depends only on item *i* —
            the precondition for fusing with a neighbour.
        barrier: True for kernels with cross-particle dependencies
            (current deposition, particle sorting): they never fuse and
            nothing fuses across them.
        transient: Stream names this node *produces* that exist only to
            feed a later node of the same step; when producer and
            consumer land in one fused group, these streams are elided
            from the fused spec (register-carried intermediates).
        tag: Free-form label for traces ("field-eval", "push", ...).
        untimed: Staging work kept off the simulated clock: the
            executor runs the body inline under a ``runner`` span named
            by ``tag`` and never plans, prices or launches the node.
            Untimed nodes must lead the graph.
        ranged: The body is ``body(lo, hi)`` and processes only items
            ``lo`` to ``hi``, so the executor may run it block by block
            (see :data:`BLOCK_ITEMS`).  Only elementwise, barrier-free
            nodes can be ranged.
    """

    spec: KernelSpec
    n_items: int
    body: Optional[Callable[..., None]] = None
    layout: str = ""
    precision: Precision = Precision.DOUBLE
    elementwise: bool = True
    barrier: bool = False
    transient: FrozenSet[str] = frozenset()
    tag: str = ""
    untimed: bool = False
    ranged: bool = False

    def __post_init__(self) -> None:
        if self.n_items < 0:
            raise GraphError(f"node {self.spec.name!r}: n_items must be "
                             f">= 0, got {self.n_items}")
        if self.ranged and (self.barrier or not self.elementwise):
            raise GraphError(
                f"node {self.spec.name!r}: only an elementwise, "
                f"barrier-free node can be ranged")
        if self.barrier and self.transient:
            raise GraphError(
                f"node {self.spec.name!r}: a barrier node cannot declare "
                f"transient streams (it never fuses)")
        unknown = self.transient - {s.name for s in self.spec.streams}
        if unknown:
            raise GraphError(
                f"node {self.spec.name!r}: transient streams "
                f"{sorted(unknown)} are not streams of the spec")

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def reads(self) -> FrozenSet[str]:
        """Stream names this node reads (incl. read-modify-write).

        Delegates to :attr:`KernelSpec.reads` so the graph IR, the
        queue's command log and the hazard detector share one
        derivation of declared access.
        """
        return self.spec.reads

    @property
    def writes(self) -> FrozenSet[str]:
        """Stream names this node writes (incl. read-modify-write)."""
        return self.spec.writes


class KernelGraph:
    """Ordered recording of one step's kernel nodes.

    ``nodes[:staged]`` are the untimed staging nodes; planning and
    launching start at ``staged``.
    """

    def __init__(self) -> None:
        self.nodes: List[KernelNode] = []
        self.staged = 0

    def add(self, node: KernelNode) -> KernelNode:
        """Append a node (recorded order is execution order)."""
        if node.untimed:
            if self.staged != len(self.nodes):
                raise GraphError(
                    f"untimed node {node.name!r} follows a timed node; "
                    f"staging must lead the graph")
            self.staged += 1
        self.nodes.append(node)
        return node

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


# -- legality ------------------------------------------------------------

def fusion_legal(a: KernelNode, b: KernelNode) -> Tuple[bool, str]:
    """Whether ``b`` may fuse onto a group ending in ``a``; and why not.

    Legal means: both elementwise and barrier-free, identical item
    counts (one fused range), identical layout and precision (one JIT
    specialisation).  Returns ``(ok, reason)`` with ``reason`` empty
    when legal — the planner records the reason in traces so a refused
    fusion is explainable.
    """
    for node in (a, b):
        if node.barrier:
            return False, f"{node.name}: barrier kernel"
        if not node.elementwise:
            return False, f"{node.name}: not elementwise"
    if a.n_items != b.n_items:
        return False, f"item counts differ ({a.n_items} vs {b.n_items})"
    if a.layout != b.layout or not a.layout:
        return False, f"layout mismatch ({a.layout or '?'} vs " \
                      f"{b.layout or '?'})"
    if a.precision is not b.precision:
        return False, (f"precision mismatch ({a.precision.value} vs "
                       f"{b.precision.value})")
    return True, ""


# -- spec merging --------------------------------------------------------

_KIND_MERGE = {
    (StreamKind.READ, StreamKind.READ): StreamKind.READ,
    (StreamKind.WRITE, StreamKind.WRITE): StreamKind.WRITE,
}


def merge_kinds(first: StreamKind, second: StreamKind) -> StreamKind:
    """Access mode of one stream touched by two accesses (two fused
    kernels, or two members of one AoS record)."""
    return _KIND_MERGE.get((first, second), StreamKind.READ_WRITE)


def fuse_nodes(nodes: Sequence[KernelNode]) -> Tuple[KernelSpec,
                                                     Tuple[str, ...]]:
    """Merge a fused group's specs; returns ``(spec, elided names)``.

    Streams are matched by name.  A stream referenced by several nodes
    appears once, with the combined access mode (a read in one node and
    a write in another becomes a read-modify-write).  A *transient*
    stream — declared by its producer and consumed by a later node of
    the group — is dropped entirely: inside one kernel the intermediate
    values never leave registers.  Flops add up; nothing else about the
    arithmetic changes.
    """
    if not nodes:
        raise GraphError("cannot fuse an empty node group")
    if len({n.n_items for n in nodes}) != 1:
        raise GraphError(
            f"fused nodes must share an item count, got "
            f"{[n.n_items for n in nodes]}")
    transient_writers: Dict[str, KernelNode] = {}
    for node in nodes:
        for name in node.transient:
            transient_writers[name] = node
    consumed = set()
    for node in nodes:
        consumed |= node.reads
    elided = tuple(sorted(name for name, writer in transient_writers.items()
                          if name in consumed))
    elided_set = set(elided)

    merged: Dict[str, MemoryStream] = {}
    order: List[str] = []
    for node in nodes:
        for stream in node.spec.streams:
            if stream.name in elided_set:
                continue
            existing = merged.get(stream.name)
            if existing is None:
                merged[stream.name] = stream
                order.append(stream.name)
                continue
            if (existing.bytes_per_item != stream.bytes_per_item
                    or existing.span_bytes_per_item
                    != stream.span_bytes_per_item
                    or existing.contiguous != stream.contiguous):
                raise GraphError(
                    f"stream {stream.name!r} is declared differently by "
                    f"two fused kernels")
            kind = merge_kinds(existing.kind, stream.kind)
            if kind is not existing.kind:
                merged[stream.name] = MemoryStream(
                    name=existing.name, kind=kind,
                    bytes_per_item=existing.bytes_per_item,
                    span_bytes_per_item=existing.span_bytes_per_item,
                    contiguous=existing.contiguous,
                    allocation=existing.allocation)
    spec = KernelSpec(
        name="fused:" + "+".join(n.name for n in nodes),
        streams=tuple(merged[name] for name in order),
        flops_per_item=sum(n.spec.flops_per_item for n in nodes))
    return spec, elided


# -- planning ------------------------------------------------------------

@dataclass
class FusionPlan:
    """Outcome of one planning pass over a graph.

    ``groups`` are index runs into the graph's node list (every timed
    node appears in exactly one group, order preserved; untimed staging
    nodes appear in none); ``refusals`` maps a
    boundary ``(left_name, right_name)`` to the reason it stayed
    unfused — legality or cost, surfaced in traces and tests.
    """

    groups: List[List[int]] = field(default_factory=list)
    refusals: Dict[Tuple[str, str], str] = field(default_factory=dict)

    @property
    def fused_group_count(self) -> int:
        """Groups that actually merged two or more kernels."""
        return sum(1 for g in self.groups if len(g) > 1)

    @property
    def kernels_eliminated(self) -> int:
        """Launches saved relative to the unfused graph."""
        return sum(len(g) - 1 for g in self.groups)


class FusionPass:
    """Cost-model-driven greedy fusion planner.

    Walks the graph left to right, growing the current group while the
    next node is *legal* to fuse (see :func:`fusion_legal`) and the
    cost model prices the merged kernel no worse than the pair of
    separate launches it replaces.  Greedy is exact here: the graph is
    a chain (recorded execution order), so the only decision is where
    to cut it.

    Args:
        cost_model: Prices candidate kernels
            (:meth:`~repro.oneapi.costmodel.CostModel.estimate_spec_seconds`).
    """

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model

    def _estimate(self, spec: KernelSpec, n_items: int,
                  precision: Precision) -> float:
        return self.cost_model.estimate_spec_seconds(spec, n_items,
                                                     precision)

    def beneficial(self, group: Sequence[KernelNode],
                   candidate: KernelNode) -> Tuple[bool, str]:
        """Would fusing ``candidate`` onto ``group`` be cheaper?"""
        nodes = list(group) + [candidate]
        fused_spec, _ = fuse_nodes(nodes)
        precision = candidate.precision
        n = candidate.n_items
        separate = sum(self._estimate(node.spec, n, precision)
                       for node in nodes)
        fused = self._estimate(fused_spec, n, precision)
        if fused <= separate:
            return True, ""
        return False, (f"cost model refuses: fused {fused:.3e}s vs "
                       f"separate {separate:.3e}s")

    def plan(self, graph: KernelGraph) -> FusionPlan:
        """Partition the graph into maximal beneficial fused groups."""
        plan = FusionPlan()
        current: List[int] = []
        for index in range(graph.staged, len(graph.nodes)):
            node = graph.nodes[index]
            if not current:
                current = [index]
                continue
            last = graph.nodes[current[-1]]
            ok, reason = fusion_legal(last, node)
            if ok:
                ok, reason = self.beneficial(
                    [graph.nodes[i] for i in current], node)
            if ok:
                current.append(index)
            else:
                plan.refusals[(last.name, node.name)] = reason
                plan.groups.append(current)
                current = [index]
        if current:
            plan.groups.append(current)
        return plan


# -- execution -----------------------------------------------------------

def unfused_plan(graph: KernelGraph) -> FusionPlan:
    """Degenerate plan: one launch per timed node (the fusion baseline)."""
    return FusionPlan(groups=[[i] for i in range(graph.staged, len(graph))])


def group_spec(nodes: Sequence[KernelNode]) -> Tuple[KernelSpec,
                                                     Tuple[str, ...]]:
    """The spec one planned group launches as, plus its elided streams.

    A single node launches its own spec; a multi-node group launches
    the merged spec of :func:`fuse_nodes`.  Shared by the executor (to
    launch) and the graph-level roofline analyzer (to classify), so
    both always see the same stream dedup and transient elision.
    """
    if len(nodes) == 1:
        return nodes[0].spec, ()
    return fuse_nodes(nodes)


def compose_bodies(nodes: Sequence[KernelNode]
                   ) -> Optional[Callable[[], None]]:
    """One no-argument body running ``nodes``' bodies in recorded order.

    When every node is ranged, the bodies run block by block: for each
    :data:`BLOCK_ITEMS`-item block of the shared range, every body in
    recorded order.  Otherwise each body runs once over the whole range
    (a ranged one as ``body(0, n_items)``).  None when no node has a
    body.
    """
    bodies = [(node.body, node.ranged) for node in nodes
              if node.body is not None]
    if not bodies:
        return None
    n = nodes[0].n_items
    if all(node.ranged for node in nodes):
        ranged = [run_one for run_one, _ in bodies]

        def blocked() -> None:
            for lo in range(0, n, BLOCK_ITEMS):
                hi = min(lo + BLOCK_ITEMS, n)
                for run_one in ranged:
                    run_one(lo, hi)
        return blocked

    def whole() -> None:
        for run_one, is_ranged in bodies:
            if is_ranged:
                run_one(0, n)
            else:
                run_one()
    return whole


class GraphExecutor:
    """Plans one recorded kernel graph once, then replays it.

    An engine records its graph once, with bodies that read the
    engine's clock when they run, so nothing about the graph changes
    between steps.  Construction makes the fusion plan and, per group,
    the merged spec, the composed body (blocked when every node of the
    group is ranged, see :func:`compose_bodies`) and the *program
    identity* — the
    chain of constituent kernel names plus device model, layout and
    precision (the record, finalize and replay model of CUDA Graphs and
    oneAPI's ``sycl_ext_oneapi_graph``).  Each :meth:`run` runs the
    untimed staging nodes inline, off the simulated clock, then submits
    one launch per group: the queue's cost model prices every launch
    afresh, and the program key goes through the queue's
    :class:`~repro.oneapi.programcache.ProgramCache`, so the first
    execution of a chain pays the calibrated JIT cost and warm
    executions pay nothing.

    Successive groups are chained with events (group *k+1* depends on
    group *k*), so on an out-of-order queue a graph behaves like the
    in-order sequence it declares while still composing with external
    ``depends_on`` edges (the sharded runner's exchange overlap).
    """

    def __init__(self, queue, graph: KernelGraph, fusion: bool = True,
                 validate: bool = False) -> None:
        from ..observability.tracer import active_tracer

        self.queue = queue
        self.graph = graph
        self.fusion = bool(fusion)
        #: When True, every :meth:`run` replays the launches it just
        #: submitted through the hazard detector and raises
        #: :class:`~repro.errors.HazardError` on a missing
        #: ``depends_on`` edge — a per-step race check for graphs on
        #: out-of-order queues.
        self.validate = bool(validate)
        plan = FusionPass(queue.cost_model).plan(graph) if self.fusion \
            else unfused_plan(graph)
        #: The graph's one fusion plan (unfused when ``fusion`` is off).
        self.last_plan = plan
        tracer = active_tracer()
        if tracer is not None and self.fusion:
            tracer.fusion_plan(
                groups=[[graph.nodes[i].name for i in g]
                        for g in plan.groups],
                kernels_eliminated=plan.kernels_eliminated,
                refusals={f"{a}|{b}": why
                          for (a, b), why in plan.refusals.items()})
        device = queue.device
        self._staging = [(node, compose_bodies([node]))
                         for node in graph.nodes[:graph.staged]]
        self._launches = []
        for group_indices in plan.groups:
            nodes = [graph.nodes[i] for i in group_indices]
            spec, elided = group_spec(nodes)
            key = ProgramKey(
                chain=tuple(n.name for n in nodes), device=device.jit_key,
                layout=nodes[0].layout, precision=nodes[0].precision.value,
                backend=device.backend)
            self._launches.append((nodes[0], spec, elided,
                                   compose_bodies(nodes), key))

    def run(self, depends_on=None) -> List:
        """Execute the graph once; returns one launch record per group.

        The untimed staging nodes run first and produce no record.
        """
        from ..observability.tracer import active_tracer, trace_span

        graph = self.graph
        if not len(graph):
            return []
        for node, body in self._staging:
            if body is not None:
                with trace_span(node.tag or node.name, "runner"):
                    body()
        tracer = active_tracer()
        records = []
        deps = depends_on
        for first, spec, elided, body, key in self._launches:
            record = self.queue.parallel_for(
                first.n_items, spec, kernel=body,
                precision=first.precision, depends_on=deps,
                program_key=key)
            if tracer is not None and elided:
                tracer.instant(f"fusion:elided:{spec.name}", "fusion",
                               streams=",".join(elided))
            records.append(record)
            deps = [record.event] if record.event is not None else None
        if self.validate:
            from ..validation.hazard import assert_hazard_free
            assert_hazard_free(self.queue.commands[-len(records):],
                               in_order=self.queue.timeline.in_order)
        return records
