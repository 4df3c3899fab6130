"""Roofline-driven autotuner: search the config space, pick the best.

The paper *hand-picks* its configurations — SoA over AoS, float over
double where physics allows, fused where the graph path exists — and
justifies each choice with a compute-vs-memory-bound argument.  This
module makes that reasoning executable:

1. :func:`enumerate_candidates` spans the space the facade can run:
   layout (AoS/SoA) x precision (float/double) x execution path
   (paper harness, unfused, fused) x SMT tiling
   (one or two threads per core, CPU single-device runs) x shard
   strategy (even/bandwidth/flops splits for device groups) x device
   (``RunConfig.tune_devices``, the backend axis — candidates may
   span oneAPI and CUDA devices, see :mod:`repro.backends`);
2. :func:`tune` prices every candidate through the cost model's
   steady-state predictor
   (:meth:`~repro.oneapi.costmodel.CostModel.estimate_spec_seconds`)
   with the graph-level roofline
   (:func:`repro.analysis.roofline.analyze_graph`) classifying each
   launch group and flooring DRAM-resident predictions at the
   roofline-ideal time, and returns a ranked :class:`TuningReport`;
3. :func:`apply_candidate` turns the winner back into a concrete
   :class:`~repro.api.RunConfig`, and :func:`check_calibration`
   compares the prediction against the measured NSPS afterwards —
   a disagreement beyond tolerance means the cost model's picture of
   the device is wrong, and surfaces as a calibration warning on the
   :class:`~repro.api.RunReport` plus an ``autotune:mispredict``
   tracer event.

``run_push(RunConfig(config="auto"))`` and ``repro push --auto`` wire
the three together; ``docs/TUNING.md`` is the user-facing guide.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..distributed.sharding import STRATEGY_NAMES
from ..errors import ConfigurationError
from ..fp import Precision
from ..observability.tracer import active_tracer
from ..oneapi.costmodel import CostModel
from ..oneapi.device import DeviceDescriptor, DeviceType
from ..oneapi.graph import FusionPass, KernelGraph, unfused_plan
from ..oneapi.runtime import FUSION_LABELS, PRECALCULATED, build_step_graph
from ..particles.ensemble import Layout
from .roofline import GraphRoofline, analyze_graph

__all__ = ["CALIBRATION_TOLERANCE", "Candidate", "CandidatePrediction",
           "TuningReport", "enumerate_candidates", "tune",
           "apply_candidate", "check_calibration"]

#: Default relative predicted-vs-measured NSPS disagreement above which
#: the run is flagged as a cost-model calibration problem.
CALIBRATION_TOLERANCE = 0.35

#: Execution paths the facade can run: the paper harness (untimed
#: field refresh, labelled "legacy"), unfused, fused (the
#: RunConfig.fusion encoding).
_FUSION_MODES = (None, False, True)


@dataclass(frozen=True)
class Candidate:
    """One point of the search space.

    ``threads_per_unit`` and ``strategy`` are ``None`` where the mode
    does not expose the axis (GPU runs have no SMT toggle, single-device
    runs have no shard split).  ``device`` is set only when the search
    spans devices (``RunConfig.tune_devices``, the backend axis): it
    names the device spec this candidate would execute on, and ``None``
    means "the config's device as written".
    """

    layout: Layout
    precision: Precision
    fusion: Optional[bool]
    threads_per_unit: Optional[int] = None
    strategy: Optional[str] = None
    device: Optional[str] = None

    @property
    def label(self) -> str:
        """Compact human-readable identity, e.g. ``SoA/float/fused``."""
        parts = [self.layout.value, self.precision.value,
                 FUSION_LABELS[self.fusion]]
        if self.threads_per_unit is not None:
            parts.append(f"{self.threads_per_unit}t")
        if self.strategy is not None:
            parts.append(self.strategy)
        if self.device is not None:
            parts.append(self.device)
        return "/".join(parts)


@dataclass(frozen=True)
class CandidatePrediction:
    """One priced candidate.

    ``rooflines`` maps each priced device key to the graph-level
    classification of the step that would run there (one entry for
    single/resilient runs, one per shard for groups).
    """

    candidate: Candidate
    predicted_nsps: float
    predicted_step_seconds: float
    bound: str
    rooflines: Tuple[Tuple[str, GraphRoofline], ...]

    def as_dict(self) -> Dict[str, object]:
        return {"candidate": self.candidate.label,
                "predicted_nsps": self.predicted_nsps,
                "predicted_step_seconds": self.predicted_step_seconds,
                "bound": self.bound}


@dataclass
class TuningReport:
    """Ranked outcome of one autotuning search.

    ``ranked`` is best-first (ascending predicted NSPS — lower is
    better).  ``best``/``worst`` are the endpoints the acceptance
    checks compare measurements against.
    """

    mode: str
    target: str
    scenario: str
    n_particles: int
    ranked: List[CandidatePrediction] = field(default_factory=list)

    @property
    def best(self) -> CandidatePrediction:
        if not self.ranked:
            raise ConfigurationError("tuning report has no candidates")
        return self.ranked[0]

    @property
    def worst(self) -> CandidatePrediction:
        if not self.ranked:
            raise ConfigurationError("tuning report has no candidates")
        return self.ranked[-1]

    def render(self) -> str:
        """Best-first table of every priced candidate."""
        lines = [f"{'candidate':<30} {'predicted ns':>13} {'bound':>8}"]
        for entry in self.ranked:
            lines.append(f"{entry.candidate.label:<30} "
                         f"{entry.predicted_nsps:>13.3f} "
                         f"{entry.bound:>8}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {"mode": self.mode, "target": self.target,
                "scenario": self.scenario,
                "n_particles": self.n_particles,
                "best": self.best.candidate.label,
                "predicted_nsps": self.best.predicted_nsps,
                "candidates": [entry.as_dict() for entry in self.ranked]}


# -- the search space ----------------------------------------------------

def _pricing_devices(config) -> List[Tuple[str, DeviceDescriptor]]:
    """The devices a run of ``config`` would execute on, keyed for the
    report.  Resilient runs are priced on the ladder's first rung (the
    device the run uses until a fault demotes it)."""
    from ..backends.registry import descriptor_for

    mode = config.mode
    if mode == "sharded":
        from ..distributed.group import parse_group_spec
        keys = parse_group_spec(config.group)
    elif mode == "resilient":
        if config.devices is not None and len(config.devices):
            keys = [config.devices[0]]
        else:
            from ..resilience.runner import DEVICE_LADDER
            keys = [DEVICE_LADDER[0]]
    else:
        keys = [config.device]
    return [(key, descriptor_for(key)) for key in keys]


def enumerate_candidates(config) -> List[Candidate]:
    """Every configuration the tuner prices for ``config``'s mode.

    The SMT-tiling axis (``threads_per_unit``) is enumerated only for
    single-device CPU runs — the GPU descriptors have no SMT toggle
    and the resilient/sharded engines do not expose the knob.

    ``config.tune_devices`` (single mode) adds the device/backend axis:
    the space is replicated per listed device spec, with the SMT axis
    evaluated per device (only its CPUs get it).
    """
    mode = config.mode
    specs: Sequence[Optional[str]] = (None,)
    if mode == "single" and getattr(config, "tune_devices", None):
        specs = tuple(config.tune_devices)
    strategies: Sequence[Optional[str]] = \
        STRATEGY_NAMES if mode == "sharded" else (None,)
    candidates: List[Candidate] = []
    for spec in specs:
        tilings: Sequence[Optional[int]] = (None,)
        if mode == "single":
            if spec is not None:
                from ..backends.registry import descriptor_for
                device = descriptor_for(spec)
            else:
                device = _pricing_devices(config)[0][1]
            if device.device_type is DeviceType.CPU \
                    and device.threads_per_unit > 1:
                tilings = (None, 1)
        candidates.extend(
            Candidate(layout=layout, precision=precision, fusion=fusion,
                      threads_per_unit=tiling, strategy=strategy,
                      device=spec)
            for layout in (Layout.AOS, Layout.SOA)
            for precision in (Precision.SINGLE, Precision.DOUBLE)
            for fusion in _FUSION_MODES
            for tiling in tilings
            for strategy in strategies)
    return candidates


# -- pricing -------------------------------------------------------------

def _candidate_graph(candidate: Candidate, config, n: int,
                     field_flops: float) -> KernelGraph:
    """The per-step kernel graph ``candidate`` would launch over ``n``
    particles — the same graph the engine records for its fusion mode."""
    scenario = config.scenario
    return build_step_graph(
        n, candidate.layout, candidate.precision, scenario,
        field_flops=(field_flops if scenario != PRECALCULATED else 0.0),
        diagnostics=config.diagnostics,
        untimed_fields=candidate.fusion is None)


def _predict_on_device(candidate: Candidate, config, n: int,
                       device: DeviceDescriptor, cost_model: CostModel,
                       field_flops: float) -> Tuple[float, GraphRoofline]:
    """Predicted steady-state seconds of one step of ``candidate`` on
    ``device``, plus the roofline classification of its launch groups."""
    graph = _candidate_graph(candidate, config, n, field_flops)
    if candidate.fusion:
        plan = FusionPass(cost_model).plan(graph)
    else:
        plan = unfused_plan(graph)
    roofline = analyze_graph(graph, device, plan=plan)
    seconds = 0.0
    for group in roofline.groups:
        predicted = cost_model.estimate_spec_seconds(
            group.spec, group.n_items, candidate.precision,
            threads_per_unit=candidate.threads_per_unit)
        dram_resident = (group.spec.working_set_bytes_per_item
                         * group.n_items
                         >= device.cache_per_domain * device.numa_domains)
        if dram_resident:
            # The roofline floor is a hard bound only once the working
            # set streams from DRAM; in cache the model's LLC boost
            # legitimately beats it.
            predicted = max(predicted, group.floor_seconds)
        seconds += predicted
    return seconds, roofline


def _predict(candidate: Candidate, config, n: int,
             devices: Sequence[Tuple[str, DeviceDescriptor]],
             field_flops: float) -> CandidatePrediction:
    """Price one candidate across the devices its run would span.

    ``candidate.device`` (the backend axis) overrides the config-level
    device list: the candidate is priced on its own device alone.  The
    cost model is dispatched on each descriptor's ``backend`` field, so
    CUDA candidates are priced with warp-quantised occupancy and
    graph-replay launch overhead.
    """
    from ..backends.registry import (cost_model_for_descriptor,
                                     descriptor_for)

    if candidate.device is not None:
        devices = [(candidate.device, descriptor_for(candidate.device))]
    if candidate.strategy is not None:
        from ..distributed.sharding import strategy_by_name
        strategy = strategy_by_name(candidate.strategy,
                                    candidate.precision)
        counts = strategy.initial_counts(n, [d for _, d in devices])
    else:
        counts = [n]
    step_seconds = 0.0
    rooflines = []
    for (key, device), count in zip(devices, counts):
        if count <= 0:
            continue
        seconds, roofline = _predict_on_device(
            candidate, config, count, device,
            cost_model_for_descriptor(device), field_flops)
        # Shards step concurrently: the group's step is its slowest
        # member (exchange overlaps compute; see docs/DISTRIBUTED.md).
        step_seconds = max(step_seconds, seconds) \
            if candidate.strategy is not None else step_seconds + seconds
        rooflines.append((key, roofline))
    memory = sum(r.floor_seconds for _, r in rooflines
                 if r.bound == "memory")
    total = sum(r.floor_seconds for _, r in rooflines) or 1.0
    return CandidatePrediction(
        candidate=candidate,
        predicted_nsps=step_seconds * 1.0e9 / n,
        predicted_step_seconds=step_seconds,
        bound="memory" if memory * 2 >= total else "compute",
        rooflines=tuple(rooflines))


def tune(config) -> TuningReport:
    """Search ``config``'s space; return the ranked :class:`TuningReport`.

    ``config`` is a :class:`~repro.api.RunConfig` (its ``layout``,
    ``precision``, ``fusion``, ``threads_per_unit`` and ``strategy``
    are ignored — those are the axes being searched; everything else,
    scenario/size/mode/devices, is held fixed).
    """
    config.validate()
    from ..bench.scenarios import paper_wave

    n = config.n_particles
    devices = _pricing_devices(config)
    field_flops = paper_wave().flops_per_evaluation
    tracer = active_tracer()
    predictions = []
    for candidate in enumerate_candidates(config):
        prediction = _predict(candidate, config, n, devices, field_flops)
        predictions.append(prediction)
        if tracer is not None:
            tracer.autotune("search", candidate=candidate.label,
                            predicted_nsps=prediction.predicted_nsps,
                            bound=prediction.bound)
    # Ties (e.g. AoS vs SoA when compute-bound) break toward the lower
    # roofline floor — less DRAM traffic is the safer pick off-model.
    predictions.sort(key=lambda p: (p.predicted_nsps,
                                    sum(r.floor_seconds
                                        for _, r in p.rooflines)))
    report = TuningReport(
        mode=config.mode,
        target=config.group if config.mode == "sharded" else
        (config.devices[0] if config.mode == "resilient"
         and config.devices else config.device),
        scenario=config.scenario, n_particles=n, ranked=predictions)
    if tracer is not None:
        tracer.autotune("selected", candidate=report.best.candidate.label,
                        predicted_nsps=report.best.predicted_nsps,
                        candidates=len(predictions))
    return report


# -- closing the loop ----------------------------------------------------

def apply_candidate(config, candidate: Candidate):
    """A concrete :class:`~repro.api.RunConfig` running ``candidate``.

    ``config="auto"`` is cleared on the result (it *is* the tuned
    config), and the searched axes are overwritten; everything else is
    copied through.  A candidate carrying a ``device`` (the backend
    axis) also rebinds the run's device — ``tune_devices`` is consumed
    in the same stroke, the result being a plain single-device config.
    """
    updates = dict(config=None, layout=candidate.layout,
                   precision=candidate.precision, fusion=candidate.fusion,
                   threads_per_unit=candidate.threads_per_unit,
                   strategy=candidate.strategy)
    if candidate.device is not None:
        updates["device"] = candidate.device
        updates["tune_devices"] = None
    return dataclasses.replace(config, **updates)


def check_calibration(prediction: CandidatePrediction,
                      measured_nsps: float, target: str,
                      tolerance: float = CALIBRATION_TOLERANCE
                      ) -> List[str]:
    """Compare predicted against measured NSPS; return warning strings.

    Within ``tolerance`` (relative) the model is considered calibrated
    and an ``autotune:calibrated`` instant records the agreement.
    Beyond it, the returned warning names the candidate and both
    numbers, and an ``autotune:mispredict`` instant carries the same
    evidence — a misprediction is not a failed run (the measurement is
    still valid) but a cost-model bug report; see ``docs/TUNING.md``.
    """
    if tolerance <= 0.0:
        raise ConfigurationError(
            f"tolerance must be > 0, got {tolerance}")
    predicted = prediction.predicted_nsps
    relative = abs(measured_nsps - predicted) / predicted \
        if predicted > 0 else float("inf")
    tracer = active_tracer()
    if relative <= tolerance:
        if tracer is not None:
            tracer.autotune("calibrated",
                            candidate=prediction.candidate.label,
                            target=target, predicted_nsps=predicted,
                            measured_nsps=measured_nsps,
                            relative_error=relative)
        return []
    if tracer is not None:
        tracer.autotune("mispredict",
                        candidate=prediction.candidate.label,
                        target=target, predicted_nsps=predicted,
                        measured_nsps=measured_nsps,
                        relative_error=relative, tolerance=tolerance)
    return [f"autotune mispredict on {target}: candidate "
            f"{prediction.candidate.label} predicted "
            f"{predicted:.3f} ns/particle/step but measured "
            f"{measured_nsps:.3f} (off by {relative:.0%}, tolerance "
            f"{tolerance:.0%}) — the cost model's calibration for this "
            f"device disagrees with the measurement; see docs/TUNING.md"]
