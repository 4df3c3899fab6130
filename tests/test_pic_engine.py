"""Tests for the PIC kernel-graph engine (repro.pic.engine)."""

import numpy as np
import pytest

from repro.backends.registry import queue_for, resolve_device
from repro.errors import ConfigurationError, DeviceLostError
from repro.fp import Precision
from repro.oneapi.kernelspec import StreamKind
from repro.particles import Layout
from repro.pic import PicEngine, build_scenario, pic_state_digest
from repro.validation import assert_hazard_free

N = 48
STEPS = 2


def scenario(name="laser-slab", layout=Layout.SOA,
             precision=Precision.DOUBLE, **kwargs):
    return build_scenario(name, n_particles=N, seed=5, layout=layout,
                          precision=precision, **kwargs)


def engine_for(simulation, fusion):
    return PicEngine(queue_for("iris-xe-max"), simulation, fusion=fusion)


class TestBitExactness:
    def test_all_modes_match_reference(self, layout, precision):
        reference = scenario(layout=layout, precision=precision)
        reference.run(STEPS)
        expected = pic_state_digest(reference)
        for fusion in (False, True):
            simulation = scenario(layout=layout, precision=precision)
            engine_for(simulation, fusion).run(STEPS)
            assert pic_state_digest(simulation) == expected, \
                f"fusion={fusion} diverged from the reference run"

    def test_digest_covers_weights_and_grid(self):
        # Ionization mutates only weights + currents; the PIC digest
        # must see that (the push digest deliberately omits weight).
        simulation = scenario()
        before = pic_state_digest(simulation)
        simulation.run(1)
        assert pic_state_digest(simulation) != before

    @pytest.mark.parametrize("name", ["magnetic-mirror",
                                      "relativistic-beam"])
    def test_other_scenarios_fused_equals_unfused(self, name):
        digests = set()
        for fusion in (False, True):
            simulation = scenario(name)
            engine_for(simulation, fusion).run(STEPS)
            digests.add(pic_state_digest(simulation))
        assert len(digests) == 1


class TestGraphLowering:
    def test_node_tags_cover_every_stage(self):
        engine = engine_for(scenario(), True)
        tags = [node.tag for node in engine.graph]
        assert tags == ["gather", "push", "mc:ionize", "deposit",
                        "field-advance"]

    def test_deposit_and_advance_are_barriers(self):
        engine = engine_for(scenario(), True)
        barriers = {node.tag: node.barrier
                    for node in engine.graph}
        assert barriers["deposit"] and barriers["field-advance"]
        assert not barriers["gather"] and not barriers["push"]

    def test_gather_streams_are_transient(self):
        engine = engine_for(scenario(), True)
        gather = next(node for node in engine.graph
                      if node.tag == "gather")
        assert gather.transient
        assert all(name.startswith("pic-fields-")
                   for name in gather.transient)

    def test_deposition_none_records_the_wrap_node(self):
        # No current, but the positions still wrap into the periodic
        # box, as a fusable node that claims no grid traffic.
        engine = engine_for(scenario(deposition="none"), True)
        tags = [node.tag for node in engine.graph]
        assert tags == ["gather", "push", "mc:ionize", "wrap",
                        "field-advance"]
        wrap = engine.graph.nodes[3]
        assert wrap.elementwise and not wrap.barrier
        assert [(s.name, s.kind) for s in wrap.spec.streams] == \
            [(f"soa-{c}", _RW) for c in "xyz"]
        engine.step()
        assert engine.executor.last_plan.groups == [[0, 1, 2, 3], [4]]

    def test_fusion_plan_merges_the_particle_chain(self):
        engine = engine_for(scenario(), True)
        engine.step()
        plan = engine.executor.last_plan
        # gather + push + ionize fuse; the two barriers stand alone.
        assert plan.groups == [[0, 1, 2], [3], [4]]
        assert plan.kernels_eliminated == 2

    def test_unfused_plan_keeps_every_launch(self):
        engine = engine_for(scenario(), False)
        engine.step()
        plan = engine.executor.last_plan
        assert all(len(group) == 1 for group in plan.groups)
        assert plan.kernels_eliminated == 0

    def test_fused_step_launches_fewer_kernels(self):
        fused, unfused = (engine_for(scenario(), f) for f in (True, False))
        fused.step()
        unfused.step()
        assert len(fused.queue.commands) < len(unfused.queue.commands)

    def test_roofline_analyzer_accepts_the_pic_graph(self):
        engine = engine_for(scenario(), True)
        from repro.analysis.roofline import analyze_graph
        _, device = resolve_device("iris-xe-max")
        table = analyze_graph(engine.graph, device).render()
        assert "pic-gather" in table and "pic-advance" in table


_R, _W, _RW = StreamKind.READ, StreamKind.WRITE, StreamKind.READ_WRITE
_GATHERED = ["pic-fields-ex", "pic-fields-ey", "pic-fields-ez",
             "pic-fields-bx", "pic-fields-by", "pic-fields-bz"]
_JS = ["grid-jx", "grid-jy", "grid-jz"]
_GRID_FIELDS = ["grid-ex", "grid-ey", "grid-ez", "grid-bx", "grid-by",
                "grid-bz"]


def _streams(names, kind, nbytes):
    return [(name, kind, nbytes) for name in names]


_ADVANCE = _streams(_JS, _R, 8.0) + _streams(_GRID_FIELDS, _RW, 8.0)
#: Every PIC spec builder's streams (name, kind, bytes per item) in
#: single precision with the CIC Esirkepov window, keyed by node tag.
_PINNED_STREAMS = {
    Layout.AOS: {
        "gather": [("particles-aos", _R, 34)]
        + _streams(_GATHERED, _W, 8),
        "push": [("particles-aos", _RW, 34)] + _streams(_GATHERED, _R, 8),
        "mc:ionize": [("particles-aos", _RW, 34)]
        + _streams(_GATHERED[:3], _R, 8),
        "mc:collide": [("particles-aos", _RW, 34)],
        "deposit": [("particles-aos", _RW, 34)]
        + _streams(_JS, _RW, 512.0),
        "field-advance": _ADVANCE,
    },
    Layout.SOA: {
        "gather": _streams(["soa-x", "soa-y", "soa-z"], _R, 4)
        + _streams(_GATHERED, _W, 8),
        "push": _streams(["soa-x", "soa-y", "soa-z", "soa-px", "soa-py",
                          "soa-pz"], _RW, 4)
        + [("soa-type", _R, 2), ("soa-gamma", _W, 4)]
        + _streams(_GATHERED, _R, 8),
        "mc:ionize": _streams(["soa-px", "soa-py", "soa-pz", "soa-weight"],
                              _RW, 4)
        + _streams(_GATHERED[:3], _R, 8),
        "mc:collide": _streams(["soa-px", "soa-py", "soa-pz"], _RW, 4),
        "deposit": _streams(["soa-x", "soa-y", "soa-z"], _RW, 4)
        + _streams(["soa-px", "soa-py", "soa-pz", "soa-gamma",
                    "soa-weight"], _R, 4)
        + [("soa-type", _R, 2)] + _streams(_JS, _RW, 512.0),
        "field-advance": _ADVANCE,
    },
}


class TestStreamShapes:
    @pytest.mark.parametrize("layout", list(Layout))
    def test_spec_builder_streams_are_pinned(self, layout):
        # Stream order feeds the summed traffic, which the pinned PIC
        # numbers depend on.
        shapes = {}
        for name in ("laser-slab", "magnetic-mirror"):
            engine = engine_for(scenario(name, layout=layout,
                                         precision=Precision.SINGLE), True)
            for node in engine.graph:
                shapes[node.tag] = [(s.name, s.kind, s.bytes_per_item)
                                    for s in node.spec.streams]
        assert shapes == _PINNED_STREAMS[layout]


class TestHazards:
    def test_engine_replay_is_hazard_free(self):
        for fusion in (False, True):
            simulation = scenario()
            engine = engine_for(simulation, fusion)
            engine.run(STEPS)
            checked = sum(assert_hazard_free(q) for q in engine.queues())
            assert checked > 0

    def test_validating_executor_passes(self):
        simulation = scenario()
        queue = queue_for("iris-xe-max")
        PicEngine(queue, simulation, fusion=True, validate=True).run(STEPS)



class TestStepping:
    def test_step_seconds_accumulate(self):
        engine = engine_for(scenario(), True)
        engine.run(3)
        assert len(engine.step_seconds) == 3
        assert all(s > 0.0 for s in engine.step_seconds)

    def test_step_count_advances(self):
        simulation = scenario()
        engine = engine_for(simulation, False)
        engine.run(STEPS)
        assert simulation.step_count == STEPS

    def test_device_loss_interrupts_the_step(self):
        from repro.resilience import fault_injection
        from repro.resilience.faults import FaultPlan, FaultRule
        plan = FaultPlan(name="pic-loss", rules=(
            FaultRule("device-loss", at_ops=(0,), max_injections=1),))
        engine = engine_for(scenario(), True)
        with fault_injection(plan, seed=0):
            with pytest.raises(DeviceLostError):
                engine.run(2)


class TestFacade:
    def config(self, **kwargs):
        from repro.api import PicConfig
        defaults = dict(scenario="laser-slab", n_particles=N, steps=2,
                        warmup=1, seed=5)
        defaults.update(kwargs)
        return PicConfig(**defaults)

    def test_run_pic_modes_agree(self):
        from repro.api import run_pic
        digests = set()
        for fusion in (False, True):
            report = run_pic(self.config(fusion=fusion))
            digests.add(report.digest)
            assert report.nsps > 0.0
            assert np.isfinite(report.energy_drift)
        assert len(digests) == 1

    def test_run_pic_validate(self):
        from repro.api import run_pic
        report = run_pic(self.config(fusion=True), validate=True)
        assert report.fusion_groups > 0
        assert report.kernels_eliminated > 0

    @pytest.mark.parametrize("scenario_name,nsps,first_step_nsps,"
                             "simulated_seconds,digest", [
        ("laser-slab", 12890.782828282829, 31270890.782828286,
         1.502240272727273, "497474cc5d4c77e24ef7e77be91d2ea4"
                            "f336cebda4a264861c7e75c7ae9728bf"),
        ("magnetic-mirror", 12979.16666666667, 31275379.16666666,
         1.5024642, "46d54c9afd4191b01f7b717e24e32f8c"
                    "b8bacfaa06592ade14f3dd02ec76e910"),
    ])
    def test_unfused_numbers_are_pinned(self, scenario_name, nsps,
                                        first_step_nsps, simulated_seconds,
                                        digest):
        # The values the removed per-stage launch loop produced: the
        # unfused graph prices and computes the same step.
        from repro.api import run_pic
        report = run_pic(self.config(scenario=scenario_name, fusion=False))
        assert report.nsps == nsps
        assert report.first_step_nsps == first_step_nsps
        assert report.simulated_seconds == simulated_seconds
        assert report.digest == digest

    @pytest.mark.parametrize("scenario_name", ["laser-slab",
                                               "magnetic-mirror",
                                               "relativistic-beam"])
    def test_two_domain_cpu_runs(self, scenario_name):
        # The deposit's grid-current streams are walked with
        # per-particle chunks; on a NUMA device the chunks past the
        # grid array's end must price as empty, not fail.
        from repro.api import run_pic
        for fusion in (False, True):
            cpu = run_pic(self.config(scenario=scenario_name, device="cpu",
                                      fusion=fusion))
            gpu = run_pic(self.config(scenario=scenario_name,
                                      fusion=fusion))
            assert np.isfinite(cpu.nsps) and cpu.nsps > 0.0
            assert cpu.digest == gpu.digest

    def test_fusion_must_be_a_bool(self):
        from repro.api import run_pic
        with pytest.raises(ConfigurationError, match="fusion"):
            run_pic(self.config(fusion=None))

    def test_unknown_scenario_maps_to_configuration_error(self):
        from repro.api import run_pic
        with pytest.raises(ConfigurationError):
            run_pic(self.config(scenario="warp-core"))

    def test_report_cell_shape(self):
        from repro.api import run_pic
        cell = run_pic(self.config(fusion=True)).as_cell(config="fused")
        assert cell["suite"] == "pic"
        assert "nsps" in cell["metrics"]
        assert cell["extra"]["digest"]
