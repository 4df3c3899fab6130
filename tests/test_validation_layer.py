"""The validation layer: hazard detection + differential checking.

Covers the tentpole end to end: the command log the queue records, the
RAW/WAR/WAW replay over it (a deliberately dropped ``depends_on`` edge
must raise :class:`~repro.errors.HazardError`), the differential sweep
of every engine x layout x precision x fusion combination against the
scalar reference, and the ``run_push(..., validate=True)`` facade hook
— plus the satellite fixes that ride along (typed species LUTs, the
|p|-preservation property, scalar-vs-vectorized float32 agreement,
deprecation-shim kwarg forwarding, CLI exit codes, exact schedule
tiling).
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import paper_time_step, paper_wave
from repro.bench.calibration import cost_model_for, device_by_name
from repro.bench.scenarios import paper_ensemble
from repro.errors import (ConfigurationError, HazardError, SimulationError,
                          ValidationError)
from repro.fields.base import FieldValues
from repro.fp import FP3, Precision
from repro.oneapi.kernelspec import KernelSpec, MemoryStream, StreamKind
from repro.oneapi.queue import CommandRecord, Queue, RuntimeConfig
from repro.particles.ensemble import Layout, make_ensemble
from repro.validation import (ULP_TOLERANCES, assert_hazard_free,
                              check_queue, find_hazards, reference_push,
                              run_differential, ulp_distance)

DT = paper_time_step()


def _queue(in_order=False, device_name="iris-xe-max"):
    device = device_by_name(device_name)
    return Queue(device, RuntimeConfig(runtime="dpcpp", in_order=in_order),
                 cost_model_for(device))


def _spec(name, reads=(), writes=(), read_writes=()):
    streams = [MemoryStream(r, StreamKind.READ, 4.0) for r in reads]
    streams += [MemoryStream(w, StreamKind.WRITE, 4.0) for w in writes]
    streams += [MemoryStream(rw, StreamKind.READ_WRITE, 4.0)
                for rw in read_writes]
    return KernelSpec(name, streams=tuple(streams), flops_per_item=1.0)


# -- the command log ------------------------------------------------------

class TestCommandLog:
    def test_parallel_for_records_declared_access(self):
        queue = _queue()
        record = queue.parallel_for(8, _spec("push", reads=["f"],
                                             writes=["mom"],
                                             read_writes=["pos"]))
        command = queue.commands[-1]
        assert command.name == "push"
        assert command.event is record.event
        assert command.reads == frozenset({"f", "pos"})
        assert command.writes == frozenset({"mom", "pos"})
        assert command.depends_on == ()

    def test_depends_on_is_logged(self):
        queue = _queue()
        first = queue.parallel_for(8, _spec("a", writes=["x"]))
        queue.parallel_for(8, _spec("b", reads=["x"]),
                           depends_on=[first.event])
        assert queue.commands[-1].depends_on == (first.event,)

    def test_memcpy_async_logs_declared_sets(self):
        queue = _queue()
        event = queue.memcpy_async("gather", 1024, bandwidth=1e9,
                                   reads=["shard"], writes=["master"])
        command = queue.commands[-1]
        assert command.name == "gather"
        assert command.event is event
        assert command.reads == frozenset({"shard"})
        assert command.writes == frozenset({"master"})

    def test_reset_records_clears_the_log(self):
        queue = _queue()
        queue.parallel_for(8, _spec("a", writes=["x"]))
        queue.reset_records()
        assert queue.commands == []

    def test_event_seq_is_unique_per_event(self):
        queue = _queue()
        records = [queue.parallel_for(8, _spec(f"k{i}")) for i in range(5)]
        seqs = [r.event.seq for r in records]
        assert len(set(seqs)) == len(seqs)


# -- hazard detection -----------------------------------------------------

class TestHazardDetector:
    def test_dropped_edge_raises_raw(self):
        queue = _queue()
        queue.parallel_for(8, _spec("writer", writes=["a"]))
        queue.parallel_for(8, _spec("reader", reads=["a"]))  # edge dropped
        hazards = check_queue(queue)
        assert [h.kind for h in hazards] == ["RAW"]
        assert hazards[0].streams == frozenset({"a"})
        with pytest.raises(HazardError, match="RAW"):
            assert_hazard_free(queue)

    def test_ordered_pair_is_clean(self):
        queue = _queue()
        first = queue.parallel_for(8, _spec("writer", writes=["a"]))
        queue.parallel_for(8, _spec("reader", reads=["a"]),
                           depends_on=[first.event])
        assert check_queue(queue) == []
        assert assert_hazard_free(queue) == 2

    def test_war_and_waw_detected(self):
        queue = _queue()
        queue.parallel_for(8, _spec("reader", reads=["a"], writes=["b"]))
        queue.parallel_for(8, _spec("clobber", writes=["a", "b"]))
        kinds = sorted(h.kind for h in check_queue(queue))
        assert kinds == ["WAR", "WAW"]

    def test_read_modify_write_pair_yields_all_three_kinds(self):
        queue = _queue()
        queue.parallel_for(8, _spec("acc1", read_writes=["sum"]))
        queue.parallel_for(8, _spec("acc2", read_writes=["sum"]))
        kinds = sorted(h.kind for h in check_queue(queue))
        assert kinds == ["RAW", "WAR", "WAW"]

    def test_disjoint_streams_never_conflict(self):
        queue = _queue()
        queue.parallel_for(8, _spec("a", writes=["x"]))
        queue.parallel_for(8, _spec("b", writes=["y"]))
        assert check_queue(queue) == []

    def test_transitive_ordering_counts(self):
        # a -> b -> c orders (a, c) even without a direct edge.
        queue = _queue()
        a = queue.parallel_for(8, _spec("a", writes=["x"]))
        b = queue.parallel_for(8, _spec("b", reads=["x"], writes=["t"]),
                               depends_on=[a.event])
        queue.parallel_for(8, _spec("c", reads=["t"], writes=["x"]),
                           depends_on=[b.event])
        assert check_queue(queue) == []

    def test_in_order_queue_never_hazards(self):
        queue = _queue(in_order=True)
        queue.parallel_for(8, _spec("writer", writes=["a"]))
        queue.parallel_for(8, _spec("reader", reads=["a"]))
        assert check_queue(queue) == []
        assert assert_hazard_free(queue) == 2

    def test_doctored_log_with_stripped_edges_raises(self):
        # The acceptance scenario: take a correctly ordered log and
        # deliberately drop its edges — the detector must catch it.
        queue = _queue()
        first = queue.parallel_for(8, _spec("writer", writes=["a"]))
        queue.parallel_for(8, _spec("reader", reads=["a"]),
                           depends_on=[first.event])
        assert find_hazards(queue.commands) == []
        stripped = [dataclasses.replace(c, depends_on=())
                    for c in queue.commands]
        with pytest.raises(HazardError):
            assert_hazard_free(stripped, in_order=False)

    def test_foreign_dependency_events_are_ignored(self):
        # An edge pointing at another queue's event orders nothing here.
        other = _queue()
        foreign = other.parallel_for(8, _spec("elsewhere", writes=["a"]))
        queue = _queue()
        queue.parallel_for(8, _spec("writer", writes=["a"]))
        queue.parallel_for(8, _spec("reader", reads=["a"]),
                           depends_on=[foreign.event])
        assert [h.kind for h in check_queue(queue)] == ["RAW"]

    def test_hazards_reported_to_tracer_before_raise(self):
        from repro.observability import Tracer, tracing

        queue = _queue()
        queue.parallel_for(8, _spec("writer", writes=["a"]))
        queue.parallel_for(8, _spec("reader", reads=["a"]))
        tracer = Tracer()
        with tracing(tracer):
            with pytest.raises(HazardError):
                assert_hazard_free(queue)
        assert any(e.name == "hazard:RAW" for e in tracer.instants)

    def test_graph_executor_validate_passes_on_real_graphs(self):
        from repro.oneapi.graph import GraphExecutor
        from repro.oneapi.runtime import PushEngine

        for fusion in (False, True):
            ensemble = paper_ensemble(128, Layout.SOA, Precision.SINGLE)
            engine = PushEngine(_queue(), ensemble, "precalculated",
                                paper_wave(), DT, fusion=fusion)
            engine.executor = GraphExecutor(engine.queue, engine.graph,
                                            fusion=fusion, validate=True)
            engine.run(3)   # would raise on any unordered pair


# -- differential harness -------------------------------------------------

class TestUlpDistance:
    def test_identical_arrays_are_zero(self):
        a = np.linspace(-1.0, 1.0, 64, dtype=np.float32)
        assert ulp_distance(a, a.copy()) == 0.0

    def test_one_ulp_is_one(self):
        a = np.array([1.0], dtype=np.float64)
        b = np.nextafter(a, np.inf)
        assert ulp_distance(a, b) == pytest.approx(1.0)

    def test_near_zero_entries_judged_on_component_scale(self):
        # A denormal-sized difference next to O(1) values must not
        # explode into millions of "ULPs".
        a = np.array([1.0, 0.0], dtype=np.float32)
        b = np.array([1.0, 1e-12], dtype=np.float32)
        assert ulp_distance(a, b) < 1.0

    def test_empty_arrays(self):
        assert ulp_distance(np.zeros(0), np.zeros(0)) == 0.0


class TestDifferentialSweep:
    def test_full_small_sweep_passes(self):
        report = run_differential(n=32, steps=2)
        assert len(report.results) == 36    # 3 engines x 2 x 2 x 3 fusion
        assert report.all_passed, report.render()
        # bit-exact groups: 4 within-(layout, precision) + 2 cross-layout
        assert len(report.digest_checks) == 6
        # resilient and sharded vs single, per layout x precision x fusion
        assert len(report.timing_checks) == 24
        assert "ok" in report.render()

    def test_timing_disagreement_is_flagged_not_raised(self, monkeypatch):
        # A group that forgets its warm-up epoch reports less simulated
        # time than the single-device run of the same steps.
        from repro.distributed.runner import ShardedPushEngine

        monkeypatch.setattr(ShardedPushEngine, "simulated_seconds",
                            ShardedPushEngine.measured_seconds)
        report = run_differential(n=16, steps=1, engines=("single",
                                                          "sharded"),
                                  layouts=(Layout.SOA,),
                                  precisions=(Precision.DOUBLE,),
                                  fusion_modes=(True,))
        [check] = report.timing_checks
        assert not check.passed
        assert "simulated_seconds" in check.detail
        assert not report.all_passed
        assert "timing: sharded == single" in report.render()

    def test_reference_push_matches_engine_time_semantics(self):
        from repro.oneapi.runtime import PushEngine

        ensemble = paper_ensemble(24, Layout.SOA, Precision.DOUBLE)
        reference = paper_ensemble(24, Layout.SOA, Precision.DOUBLE)
        PushEngine(_queue(), ensemble, "precalculated", paper_wave(),
                   DT).run(3)
        reference_push(reference, paper_wave(), DT, 3)
        for name in ("x", "y", "z", "px", "py", "pz", "gamma"):
            assert ulp_distance(ensemble.component(name),
                                reference.component(name)) \
                <= ULP_TOLERANCES[Precision.DOUBLE]

    def test_tolerance_breach_is_flagged_not_raised(self):
        report = run_differential(n=16, steps=1,
                                  engines=("single",),
                                  layouts=(Layout.SOA,),
                                  precisions=(Precision.SINGLE,),
                                  fusion_modes=(None,),
                                  tolerances={Precision.SINGLE: 0.0})
        assert not report.all_passed
        assert any(not r.passed for r in report.results)
        assert "FAIL" in report.render()


class TestRunPushValidate:
    def test_single_mode_validates(self):
        from repro.api import RunConfig, run_push

        report = run_push(RunConfig(n_particles=192, steps=2, warmup=1),
                          validate=True)
        assert report.validation is not None
        assert report.validation.commands_checked >= 3
        assert report.validation.max_ulp \
            <= report.validation.tolerance

    def test_sharded_mode_validates_every_member_queue(self):
        from repro.api import RunConfig, run_push

        report = run_push(RunConfig(n_particles=192, steps=2, warmup=0,
                                    group="2x iris-xe-max"),
                          validate=True)
        assert report.validation is not None
        # two members, each logging pushes and exchange copies
        assert report.validation.commands_checked >= 4

    def test_resilient_mode_validates(self):
        from repro.api import RunConfig, run_push

        report = run_push(RunConfig(n_particles=192, steps=2, warmup=0,
                                    fault_plan="transient", fault_seed=1),
                          validate=True)
        assert report.validation is not None

    def test_tolerance_breach_raises_validation_error(self, monkeypatch):
        from repro.api import RunConfig, run_push
        from repro.validation import differential

        monkeypatch.setitem(differential.ULP_TOLERANCES,
                            Precision.SINGLE, 0.0)
        with pytest.raises(ValidationError, match="diverged"):
            run_push(RunConfig(n_particles=64, steps=2, warmup=0),
                     validate=True)

    def test_validate_off_by_default(self):
        from repro.api import RunConfig, run_push

        assert run_push(RunConfig(n_particles=64, steps=1,
                                  warmup=0)).validation is None


# -- physics properties (satellites) --------------------------------------

MOMENTUM = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
FIELD = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)


class TestMomentumNormPreservation:
    @pytest.mark.parametrize("layout", [Layout.AOS, Layout.SOA],
                             ids=["aos", "soa"])
    @pytest.mark.parametrize("precision",
                             [Precision.SINGLE, Precision.DOUBLE],
                             ids=["float", "double"])
    @settings(max_examples=20, deadline=None)
    @given(ux=MOMENTUM, uy=MOMENTUM, uz=MOMENTUM,
           bx=FIELD, by=FIELD, bz=FIELD)
    def test_pure_magnetic_push_preserves_p_norm(self, layout, precision,
                                                 ux, uy, uz, bx, by, bz):
        from repro.constants import ELECTRON_MASS, SPEED_OF_LIGHT
        from repro.core import boris_push

        mc = ELECTRON_MASS * SPEED_OF_LIGHT
        n = 4
        ensemble = make_ensemble(n, layout, precision)
        ensemble.set_momenta(np.tile([ux * mc, uy * mc, uz * mc], (n, 1)))
        zeros = np.zeros(n, dtype=precision.dtype)

        def full(value):
            return np.full(n, value, dtype=precision.dtype)

        p2_before = sum(
            ensemble.component(c).astype(np.float64) ** 2
            for c in ("px", "py", "pz"))
        boris_push(ensemble,
                   FieldValues(zeros, zeros, zeros,
                               full(bx), full(by), full(bz)), DT)
        p2_after = sum(
            ensemble.component(c).astype(np.float64) ** 2
            for c in ("px", "py", "pz"))
        tol = 1e-5 if precision is Precision.SINGLE else 1e-12
        np.testing.assert_allclose(p2_after, p2_before,
                                   rtol=tol, atol=tol * mc * mc)


class TestScalarVectorizedAgreement:
    @pytest.mark.parametrize("layout", [Layout.AOS, Layout.SOA],
                             ids=["aos", "soa"])
    def test_float32_agreement_in_uniform_fields(self, layout):
        from repro.core import boris_push, boris_push_particle

        n, steps = 96, 3
        vectorized = paper_ensemble(n, layout, Precision.SINGLE)
        scalar = paper_ensemble(n, layout, Precision.SINGLE)
        e = FP3(100.0, -50.0, 25.0)
        b = FP3(2.0e4, -1.0e4, 5.0e3)

        def full(value):
            return np.full(n, value, dtype=np.float32)

        fields = FieldValues(full(e.x), full(e.y), full(e.z),
                             full(b.x), full(b.y), full(b.z))
        for _ in range(steps):
            boris_push(vectorized, fields, DT)
        for _ in range(steps):
            for i in range(n):
                particle = scalar[i]
                boris_push_particle(particle, e, b, DT,
                                    particle.mass, particle.charge)
        for name in ("x", "y", "z", "px", "py", "pz", "gamma"):
            assert ulp_distance(vectorized.component(name),
                                scalar.component(name)) \
                <= ULP_TOLERANCES[Precision.SINGLE], name


class TestTypedSpeciesLuts:
    def test_dtype_lookup_matches_cast_of_float64(self):
        ensemble = paper_ensemble(32, Layout.SOA, Precision.SINGLE)
        for dtype in (np.float32, np.float64):
            masses, charges = ensemble.type_table.typed_luts(dtype)
            np.testing.assert_array_equal(
                np.take(masses, ensemble.type_ids),
                ensemble.masses().astype(dtype))
            np.testing.assert_array_equal(
                np.take(charges, ensemble.type_ids),
                ensemble.charges().astype(dtype))
            assert masses.dtype == charges.dtype == np.dtype(dtype)

    def test_typed_cache_invalidated_on_register(self):
        from repro.constants import ELECTRON_MASS, ELEMENTARY_CHARGE
        from repro.particles import ParticleSpecies, default_type_table

        table = default_type_table()
        ids = np.zeros(4, dtype=np.int16)
        table.typed_luts(np.float32)             # warm the typed cache
        new_id = table.register(ParticleSpecies("muon",
                                                206.768 * ELECTRON_MASS,
                                                -ELEMENTARY_CHARGE))
        muon_ids = np.full(4, new_id, dtype=np.int16)
        masses = np.take(table.typed_luts(np.float32)[0], muon_ids)
        np.testing.assert_array_equal(
            masses, np.full(4, np.float32(206.768 * ELECTRON_MASS)))

    def test_push_output_stays_in_storage_precision(self):
        # The dtype assertion in boris_push: storage-precision inputs
        # must never silently promote, and the components stay put.
        from repro.core import boris_push

        ensemble = paper_ensemble(16, Layout.SOA, Precision.SINGLE)
        n = ensemble.size
        zeros = np.zeros(n, dtype=np.float32)
        boris_push(ensemble, FieldValues(zeros, zeros, zeros,
                                         zeros, zeros, zeros), DT)
        for name in ("px", "gamma", "x"):
            assert ensemble.component(name).dtype == np.float32


# -- engine kwargs (satellite) ---------------------------------------------

class TestEngineKwargForwarding:
    def test_push_engine_takes_fusion(self):
        from repro.oneapi.runtime import PushEngine

        ensemble = paper_ensemble(64, Layout.SOA, Precision.SINGLE)
        runner = PushEngine(_queue(), ensemble, "precalculated",
                            paper_wave(), DT, fusion=True)
        assert runner.fusion is True
        assert runner.executor is not None

    def test_resilient_engine_takes_fusion(self):
        from repro.resilience import ResilientPushEngine

        ensemble = paper_ensemble(64, Layout.SOA, Precision.SINGLE)
        runner = ResilientPushEngine(ensemble, "precalculated",
                                     paper_wave(), DT, fusion=False)
        assert runner.fusion is False

    def test_sharded_engine_takes_fusion(self):
        from repro.distributed import DeviceGroup, ShardedPushEngine

        ensemble = paper_ensemble(64, Layout.SOA, Precision.SINGLE)
        runner = ShardedPushEngine(
            DeviceGroup.from_spec("2x iris-xe-max"), ensemble,
            "precalculated", paper_wave(), DT, fusion=True)
        assert runner.fusion is True

    def test_engines_do_not_warn(self):
        from repro.oneapi.runtime import PushEngine

        ensemble = paper_ensemble(64, Layout.SOA, Precision.SINGLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            PushEngine(_queue(), ensemble, "precalculated",
                       paper_wave(), DT)


# -- CLI exit codes (satellite) -------------------------------------------

class TestCliExitCodes:
    def test_invalid_group_spec_exits_2(self, capsys):
        from repro.cli import main

        code = main(["push", "--group", "not-a-device",
                     "--push-particles", "64", "--steps", "1"])
        assert code == 2
        assert "unknown device" in capsys.readouterr().err

    def test_unknown_group_count_exits_2(self, capsys):
        from repro.cli import main

        code = main(["shard", "--group", "0x iris-xe-max"])
        assert code == 2

    def test_record_with_fault_plan_rejected(self, capsys, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["--fault-plan", "transient", "trace", "fusion",
                  "--out", str(tmp_path / "t.json"), "--record"])
        assert exc_info.value.code == 2
        assert "--record" in capsys.readouterr().err

    def test_record_with_fault_plan_rejected_on_tables(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "table2", "--record", "--fault-plan", "chaos"])
        assert exc_info.value.code == 2

    def test_push_validate_flag_runs(self, capsys):
        from repro.cli import main

        code = main(["push", "--push-particles", "64", "--steps", "1",
                     "--warmup", "0", "--validate"])
        assert code == 0
        assert "hazard-free" in capsys.readouterr().out


# -- schedule tiling (satellite) ------------------------------------------

class TestScheduleExactTiling:
    def _topology(self):
        from repro.oneapi import ThreadTopology
        from tests.test_oneapi_device import make_device
        return ThreadTopology(make_device())

    def test_overlapping_chunks_rejected(self):
        from repro.oneapi import Chunk, Schedule

        with pytest.raises(ConfigurationError, match="overlap"):
            Schedule.from_chunks([Chunk(0, 6, 0), Chunk(4, 10, 1)],
                                 self._topology(), 10, dynamic=False)

    def test_gap_rejected(self):
        from repro.oneapi import Chunk, Schedule

        with pytest.raises(ConfigurationError):
            Schedule.from_chunks([Chunk(0, 4, 0), Chunk(6, 10, 1)],
                                 self._topology(), 10, dynamic=False)

    def test_exact_tiling_accepted(self):
        from repro.oneapi import Chunk, Schedule

        schedule = Schedule.from_chunks([Chunk(0, 4, 0), Chunk(4, 10, 1)],
                                        self._topology(), 10, dynamic=False)
        assert schedule.n_items == 10


# -- the service sweep ----------------------------------------------------

class TestServiceSweep:
    def test_small_service_sweep_passes(self):
        from repro.validation import run_service_differential

        report = run_service_differential(n=32, steps=1)
        # fault-free, device-loss and sharded device-loss, per profile
        assert len(report.results) == 12
        assert report.all_passed, report.render()
        assert {r.engine for r in report.results} == {
            "service[fault-free]", "service[device-loss]",
            "service[device-loss-sharded]"}

    def test_a_restore_that_keeps_the_lost_state_is_flagged(
            self, monkeypatch):
        # A restore that rewinds the clock but not the particles replays
        # a step over already-advanced state.  The fault-free cell never
        # restores; the single-device loss lands a step after its last
        # checkpoint, so its digest must show the fault.
        from repro.resilience import Checkpointer
        from repro.validation import run_service_differential

        monkeypatch.setattr(Checkpointer, "restore_push",
                            lambda self, ensemble: self.load_push()[:2])
        report = run_service_differential(n=32, steps=1,
                                          layouts=(Layout.SOA,),
                                          precisions=(Precision.DOUBLE,))
        verdicts = {r.engine: (r.passed, r.detail) for r in report.results}
        assert verdicts["service[fault-free]"] == (True, "")
        assert verdicts["service[device-loss]"] == (
            False, "digest differs from the solo run_push")
        assert not report.all_passed
