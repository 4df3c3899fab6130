"""Whole-graph roofline classification: every launch group on the roof.

:func:`repro.oneapi.roofline.analyze_kernel` places one kernel spec on
one device's roofline.  The engine-era stack launches *graphs* —
a field-eval node, the push, sometimes a diagnostics node — and the
fusion pass reshapes their memory traffic before anything runs: shared
streams deduplicate, a read in one node and a write in another become
one read-modify-write, transient intermediates vanish into registers.
Classifying the recorded nodes one by one would therefore analyse
kernels that never launch.

This module extends the analysis to whole graphs: a
:class:`~repro.oneapi.graph.FusionPlan` partitions the graph into
launch groups, each group is merged through the executor's own
:func:`~repro.oneapi.graph.group_spec` (so the analysis sees exactly
the stream dedup and elision the launch will), and each merged spec is
placed on the roofline.  The result labels every group compute- or
memory-bound — the paper's Table 2/3 story (precalculated = memory-
bound, analytical = compute-bound on the CPU), made per-launch and
fusion-aware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import GraphError
from ..oneapi.costmodel import CostModel
from ..oneapi.device import DeviceDescriptor
from ..oneapi.graph import FusionPass, FusionPlan, KernelGraph, group_spec
from ..oneapi.kernelspec import KernelSpec
from ..oneapi.roofline import RooflinePoint, analyze_kernel

__all__ = ["GroupRoofline", "GraphRoofline", "analyze_graph"]


@dataclass(frozen=True)
class GroupRoofline:
    """One launch group of a planned graph, placed on the roofline.

    Attributes:
        nodes: Names of the recorded kernels the group launches (one
            entry for a lone node, the fused chain otherwise).
        fused: Whether the group merges two or more kernels.
        elided_streams: Transient streams fusion removed from memory
            traffic entirely (register-carried intermediates).
        spec: The spec the group actually launches — the merged spec
            for fused groups — which the autotuner also prices.
        n_items: Work items of the launch.
        point: The group's position on the device's roofline.
    """

    nodes: Tuple[str, ...]
    fused: bool
    elided_streams: Tuple[str, ...]
    spec: KernelSpec
    n_items: int
    point: RooflinePoint

    @property
    def bound(self) -> str:
        """"memory" or "compute" — which roof limits this group."""
        return "memory" if self.point.memory_bound else "compute"

    @property
    def floor_seconds(self) -> float:
        """Roofline-ideal seconds of one launch of this group.

        No scheduling, NUMA or runtime effects — the time the group
        cannot beat while it streams from DRAM.  (A cache-resident
        working set *can* beat it; the cost model models that
        separately.)
        """
        return (self.point.predicted_nsps * self.n_items * 1.0e-9
                if self.n_items else 0.0)


@dataclass(frozen=True)
class GraphRoofline:
    """Roofline classification of one planned kernel graph.

    ``groups`` follow plan order — the order the executor launches.
    """

    device_name: str
    precision: str
    groups: Tuple[GroupRoofline, ...]

    @property
    def floor_seconds(self) -> float:
        """Roofline-ideal seconds of one step (all groups, in order)."""
        return sum(g.floor_seconds for g in self.groups)

    @property
    def bound(self) -> str:
        """The step's dominant regime: the bound of the groups that
        carry the larger share of the roofline-ideal step time."""
        memory = sum(g.floor_seconds for g in self.groups
                     if g.point.memory_bound)
        return "memory" if memory * 2 >= self.floor_seconds else "compute"

    def predicted_nsps(self, n_items: int) -> float:
        """Roofline-floor nanoseconds per particle per step."""
        if n_items <= 0:
            raise GraphError(f"n_items must be >= 1, got {n_items}")
        return self.floor_seconds * 1.0e9 / n_items

    def render(self) -> str:
        """Human-readable per-group table (the CLI's roofline view)."""
        lines = [f"{'group':<44} {'AI':>7} {'ridge':>7} "
                 f"{'bound':>8} {'floor ns':>9}"]
        for group in self.groups:
            name = "+".join(group.nodes)
            if len(name) > 44:
                name = name[:41] + "..."
            nsps = (group.floor_seconds * 1.0e9 / group.n_items
                    if group.n_items else 0.0)
            lines.append(
                f"{name:<44} {group.point.arithmetic_intensity:>7.2f} "
                f"{group.point.ridge_intensity:>7.2f} "
                f"{group.bound:>8} {nsps:>9.3f}")
        return "\n".join(lines)


def analyze_graph(graph: KernelGraph, device: DeviceDescriptor,
                  plan: Optional[FusionPlan] = None,
                  cost_model: Optional[CostModel] = None) -> GraphRoofline:
    """Classify every launch group of ``graph`` on ``device``'s roofline.

    ``plan`` selects the grouping: pass the executor's
    :class:`~repro.oneapi.graph.FusionPlan` to classify what actually
    launches, or ``None`` to let a cost-model-driven
    :class:`~repro.oneapi.graph.FusionPass` plan here (``cost_model``
    defaults to a :class:`~repro.oneapi.costmodel.CostModel` of the
    device).  To classify the *unfused* baseline, pass
    ``plan=repro.oneapi.graph.unfused_plan(graph)``.

    Each group is merged with :func:`~repro.oneapi.graph.group_spec` —
    the same stream dedup and transient elision the executor applies —
    then placed with :func:`~repro.oneapi.roofline.analyze_kernel` at
    the group's recorded precision.
    """
    if not len(graph):
        raise GraphError("cannot analyze an empty kernel graph")
    if plan is None:
        model = cost_model if cost_model is not None else CostModel(device)
        plan = FusionPass(model).plan(graph)
    groups = []
    for indices in plan.groups:
        nodes = [graph.nodes[i] for i in indices]
        spec, elided = group_spec(nodes)
        point = analyze_kernel(spec, device, nodes[0].precision)
        groups.append(GroupRoofline(
            nodes=tuple(n.name for n in nodes),
            fused=len(nodes) > 1,
            elided_streams=elided,
            spec=spec,
            n_items=nodes[0].n_items,
            point=point))
    return GraphRoofline(device_name=device.name,
                         precision=graph.nodes[0].precision.value,
                         groups=tuple(groups))
