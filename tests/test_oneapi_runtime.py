"""Tests for spec builders and the PushEngine physics/timing bridge."""

import itertools

import numpy as np
import pytest

from repro.core import advance
from repro.errors import ConfigurationError, KernelError
from repro.fields import MDipoleWave
from repro.fp import Precision
from repro.oneapi import (Queue, RuntimeConfig, UsmMemoryManager,
                          build_push_spec, build_step_graph,
                          PushEngine, PUSH_FLOPS)
from repro.fields import PrecalculatedField
from repro.oneapi.kernelspec import StreamKind
from repro.particles import Layout
from repro.particles.initializers import paper_benchmark_ensemble
from tests.test_oneapi_device import make_device


class TestVirtualSpecs:
    def test_aos_single_stream(self):
        manager = UsmMemoryManager()
        spec = build_push_spec(1000, Layout.AOS, Precision.SINGLE,
                               "analytical", manager,
                               field_flops=100)
        assert len(spec.streams) == 1
        stream = spec.streams[0]
        assert stream.span_bytes_per_item == 36
        assert stream.bytes_per_item == 34
        assert not stream.contiguous
        assert spec.flops_per_item == PUSH_FLOPS + 100

    def test_soa_stream_set(self):
        manager = UsmMemoryManager()
        spec = build_push_spec(1000, Layout.SOA, Precision.DOUBLE,
                               "analytical", manager)
        names = [s.name for s in spec.streams]
        assert "soa-x" in names and "soa-gamma" in names \
            and "soa-type" in names
        assert len(spec.streams) == 8
        assert all(s.contiguous for s in spec.streams)

    def test_precalculated_adds_field_streams(self):
        manager = UsmMemoryManager()
        analytical = build_push_spec(
            1000, Layout.SOA, Precision.SINGLE, "analytical", manager)
        precalc = build_push_spec(
            1000, Layout.SOA, Precision.SINGLE, "precalculated", manager)
        field_streams = [s for s in precalc.streams
                         if s.name.startswith("fields")]
        assert len(field_streams) == 6
        assert all(s.kind is StreamKind.READ for s in field_streams)
        assert precalc.flops_per_item < analytical.flops_per_item \
            or precalc.flops_per_item == PUSH_FLOPS

    def test_aos_field_stream_interleaved(self):
        manager = UsmMemoryManager()
        spec = build_push_spec(
            1000, Layout.AOS, Precision.SINGLE, "precalculated", manager)
        fields = [s for s in spec.streams if s.name == "fields-aos"]
        assert len(fields) == 1
        assert fields[0].bytes_per_item == 24
        assert not fields[0].contiguous

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            build_push_spec(10, Layout.SOA, Precision.SINGLE,
                            "cached", UsmMemoryManager())

    def test_non_finite_field_flops_rejected(self):
        with pytest.raises(KernelError):
            build_push_spec(5, Layout.SOA, Precision.SINGLE, "analytical",
                            None, field_flops=float("nan"))

    def test_spec_name_identifies_configuration(self):
        manager = UsmMemoryManager()
        spec = build_push_spec(10, Layout.AOS, Precision.DOUBLE,
                               "analytical", manager)
        assert spec.name == "boris-analytical-AoS-double"


class TestBoundSpecs:
    def test_streams_reference_live_allocations(self, layout):
        ensemble = paper_benchmark_ensemble(100, layout=layout)
        manager = UsmMemoryManager()
        spec = build_push_spec(100, layout, ensemble.precision,
                               "analytical", manager, field_flops=50,
                               ensemble=ensemble)
        for stream in spec.streams:
            assert stream.allocation is not None
            assert stream.allocation.nbytes > 0

    def test_precalculated_requires_array(self):
        ensemble = paper_benchmark_ensemble(10)
        with pytest.raises(ConfigurationError):
            build_push_spec(10, ensemble.layout, ensemble.precision,
                            "precalculated", UsmMemoryManager(),
                            ensemble=ensemble)

    def test_precalc_layout_mismatch_rejected(self):
        ensemble = paper_benchmark_ensemble(10, layout=Layout.SOA)
        wrong = PrecalculatedField(10, ensemble.precision, Layout.AOS)
        with pytest.raises(ConfigurationError):
            build_push_spec(10, Layout.SOA, ensemble.precision,
                            "precalculated", UsmMemoryManager(),
                            ensemble=ensemble, precalc=wrong)

    def test_ensemble_must_match_the_spec(self):
        ensemble = paper_benchmark_ensemble(10, layout=Layout.SOA)
        for n, layout in ((11, Layout.SOA), (10, Layout.AOS)):
            with pytest.raises(ConfigurationError):
                build_push_spec(n, layout, ensemble.precision, "analytical",
                                UsmMemoryManager(), ensemble=ensemble)


def _node_shape(node):
    """Everything a node declares except allocations and its body."""
    return (node.spec.name, node.spec.flops_per_item,
            tuple((s.name, s.kind, s.bytes_per_item, s.span_bytes_per_item,
                   s.contiguous) for s in node.spec.streams),
            node.n_items, node.layout, node.precision, node.transient,
            node.tag, node.untimed)


class TestStepGraph:
    """The engine's graph and the unbound one come from one builder."""

    @pytest.mark.parametrize(
        "layout,precision,scenario,fusion,diagnostics",
        list(itertools.product(Layout, Precision,
                               ("precalculated", "analytical"),
                               (None, False, True), (False, True))))
    def test_engine_graph_equals_unbound_graph(self, layout, precision,
                                               scenario, fusion,
                                               diagnostics):
        wave = MDipoleWave()
        ensemble = paper_benchmark_ensemble(50, layout=layout,
                                            precision=precision)
        engine = PushEngine(Queue(make_device(), RuntimeConfig()), ensemble,
                            scenario, wave, 1e-16, fusion=fusion,
                            diagnostics=diagnostics)
        recorded = engine.record_graph()
        unbound = build_step_graph(
            50, layout, precision, scenario,
            field_flops=(wave.flops_per_evaluation
                         if scenario == "analytical" else 0.0),
            diagnostics=diagnostics, untimed_fields=fusion is None)
        assert [_node_shape(n) for n in recorded] \
            == [_node_shape(n) for n in unbound]
        assert recorded.staged == unbound.staged
        assert all(n.body is not None for n in recorded)
        assert all(n.body is None for n in unbound)
        assert all(s.allocation is not None
                   for n in recorded for s in n.spec.streams)
        assert all(s.allocation is None
                   for n in unbound for s in n.spec.streams)

    @pytest.mark.parametrize("layout,expected", [
        (Layout.AOS, ["particles-aos", "fields-aos", "diag-energy"]),
        (Layout.SOA, ["soa-x", "soa-y", "soa-z", "fields-ex", "fields-ey",
                      "fields-ez", "fields-bx", "fields-by", "fields-bz",
                      "soa-px", "soa-py", "soa-pz", "soa-gamma", "soa-type",
                      "diag-energy"]),
    ])
    def test_engine_registration_order(self, layout, expected):
        # Seeded alloc-failure plans draw on this sequence.
        queue = Queue(make_device(), RuntimeConfig())
        PushEngine(queue, paper_benchmark_ensemble(20, layout=layout),
                   "precalculated", MDipoleWave(), 1e-16, fusion=False,
                   diagnostics=True)
        assert [a.name for a in queue.memory.allocations()] == expected

    def test_record_graph_registers_nothing(self):
        queue = Queue(make_device(), RuntimeConfig())
        engine = PushEngine(queue, paper_benchmark_ensemble(20),
                            "analytical", MDipoleWave(), 1e-16,
                            diagnostics=True)
        before = list(queue.memory.allocations())
        first, second = engine.record_graph(), engine.record_graph()
        assert list(queue.memory.allocations()) == before
        assert [n.spec for n in first] == [n.spec for n in second]


class TestPushEngine:
    def _queue(self):
        return Queue(make_device(), RuntimeConfig())

    @pytest.mark.parametrize("scenario", ["precalculated", "analytical"])
    def test_physics_matches_plain_advance(self, scenario):
        wave = MDipoleWave()
        period_fraction = 2.0 * np.pi / wave.omega / 100.0
        runner_ensemble = paper_benchmark_ensemble(64, seed=5)
        reference = runner_ensemble.copy()

        runner = PushEngine(self._queue(), runner_ensemble, scenario,
                            wave, period_fraction)
        runner.run(5)
        advance(reference, wave, period_fraction, 5)

        np.testing.assert_allclose(runner_ensemble.positions(),
                                   reference.positions(), rtol=1e-12)

    def test_records_one_launch_per_step(self):
        wave = MDipoleWave()
        ensemble = paper_benchmark_ensemble(32)
        runner = PushEngine(self._queue(), ensemble, "analytical", wave,
                            1e-16)
        records = runner.run(4)
        assert len(records) == 4
        assert records[0].timing.jit_seconds > 0.0
        assert records[1].timing.jit_seconds == 0.0

    def test_time_advances(self):
        wave = MDipoleWave()
        ensemble = paper_benchmark_ensemble(16)
        runner = PushEngine(self._queue(), ensemble, "analytical", wave,
                            2e-16)
        runner.run(3)
        assert runner.time == pytest.approx(6e-16)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            PushEngine(self._queue(), paper_benchmark_ensemble(8),
                       "magic", MDipoleWave(), 1e-16)
