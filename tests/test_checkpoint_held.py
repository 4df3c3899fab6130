"""The held checkpointer: ``Checkpointer()`` keeps its checkpoints in
memory and must behave like the on-disk flavour in every way a push
loop can observe.

* bookkeeping — cadence, ``keep`` pruning, ``latest_step``,
  ``saved_count`` and ``gc`` read exactly as on disk;
* restores are bit-exact and equal, in raw bits, to the same save and
  restore through a directory;
* the held snapshot never aliases the live ensemble;
* misuse is a typed :class:`~repro.errors.ConfigurationError`;
* the service's sharded failover restores from a held checkpoint.
"""

import numpy as np
import pytest

from repro.api import RunConfig, run_push
from repro.errors import ConfigurationError
from repro.fp import Precision
from repro.observability import Tracer, tracing
from repro.particles.ensemble import COMPONENTS, Layout, make_ensemble
from repro.resilience import Checkpointer
from repro.resilience.checkpoint import HeldCheckpoint
from repro.service import JobSpec, PushService


def seeded(layout=Layout.SOA, precision=Precision.DOUBLE, n=96, seed=3):
    ensemble = make_ensemble(n, layout, precision)
    rng = np.random.default_rng(seed)
    for name in COMPONENTS:
        ensemble.component(name)[:] = rng.standard_normal(n)
    ensemble.type_ids[:] = rng.integers(0, 2, n)
    return ensemble


def raw_bits(ensemble):
    """Every stored component and the type ids, as raw bytes."""
    return [np.ascontiguousarray(ensemble.component(name)).tobytes()
            for name in COMPONENTS] + [ensemble.type_ids.tobytes()]


def scramble(ensemble):
    for name in COMPONENTS:
        ensemble.component(name)[:] = np.nan
    ensemble.type_ids[:] = -1


def test_cadence_pruning_and_counts_match_the_disk_flavour(tmp_path):
    held = Checkpointer(every=2, keep=2)
    disk = Checkpointer(tmp_path, every=2, keep=2)
    ensemble = seeded()
    for checkpointer in (held, disk):
        assert checkpointer.latest_step() is None
        for step in range(1, 10):
            checkpointer.maybe_save_push(step, ensemble, step * 1.0e-12)
    assert held.steps_on_disk() == disk.steps_on_disk() == [6, 8]
    assert held.latest_step() == disk.latest_step() == 8
    assert held.saved_count == disk.saved_count == 4
    assert held.maybe_save_push(3, ensemble, 0.0) is None


def test_gc_counts_and_traces_the_bytes_held():
    checkpointer = Checkpointer(every=1, keep=3)
    ensemble = seeded()
    for step in range(5):
        checkpointer.save_push(step, ensemble, 0.0)
    tracer = Tracer()
    with tracing(tracer):
        assert checkpointer.gc() == 3
    assert checkpointer.latest_step() is None
    (gc,) = [i for i in tracer.instants if i.name == "checkpoint:gc"]
    args = dict(gc.args)
    assert args["pruned"] == 3
    assert args["bytes"] == 3 * ensemble.nbytes
    assert checkpointer.saved_count == 5


def test_save_traces_a_checkpoint_event():
    checkpointer = Checkpointer(every=1)
    tracer = Tracer()
    with tracing(tracer):
        checkpointer.save_push(4, seeded(), 0.0)
    (event,) = [i for i in tracer.instants
                if i.name == "recovery:checkpoint"]
    assert dict(event.args) == {"step": 4, "saved": 1}


def test_the_handle_stats_the_bytes_held():
    ensemble = seeded(Layout.AOS, Precision.SINGLE)
    handle = Checkpointer().save_push(2, ensemble, 5.0e-12)
    assert isinstance(handle, HeldCheckpoint)
    assert (handle.step, handle.time) == (2, 5.0e-12)
    assert handle.stat().st_size == handle.ensemble.nbytes \
        == ensemble.nbytes > 0


@pytest.mark.parametrize("layout", [Layout.AOS, Layout.SOA])
@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_restore_is_bit_exact_and_equal_to_the_disk_round_trip(
        tmp_path, layout, precision):
    original = seeded(layout, precision)
    restored = {}
    for kind, checkpointer in (("held", Checkpointer(every=1)),
                               ("disk", Checkpointer(tmp_path, every=1))):
        ensemble = original.copy()
        checkpointer.save_push(7, ensemble, 7.0e-12)
        scramble(ensemble)
        assert checkpointer.restore_push(ensemble) == (7, 7.0e-12)
        restored[kind] = raw_bits(ensemble)
    assert restored["held"] == restored["disk"] == raw_bits(original)


def test_the_snapshot_does_not_alias_the_live_ensemble():
    checkpointer = Checkpointer(every=1)
    ensemble = seeded()
    saved = raw_bits(ensemble)
    checkpointer.save_push(1, ensemble, 0.0)
    scramble(ensemble)                        # mutate after the save
    checkpointer.restore_push(ensemble)
    assert raw_bits(ensemble) == saved
    scramble(ensemble)                        # a second restore ...
    checkpointer.restore_push(ensemble)
    assert raw_bits(ensemble) == saved        # ... gives the same state
    _, _, loaded = checkpointer.load_push()
    scramble(loaded)                          # a loaded copy is the caller's
    checkpointer.restore_push(ensemble)
    assert raw_bits(ensemble) == saved


def test_empty_or_missing_loads_raise_typed():
    checkpointer = Checkpointer()
    with pytest.raises(ConfigurationError, match="no checkpoints"):
        checkpointer.load_push()
    checkpointer.save_push(2, seeded(), 0.0)
    with pytest.raises(ConfigurationError, match="step 3"):
        checkpointer.load_push(3)


def test_simulation_checkpoints_need_a_directory():
    checkpointer = Checkpointer(every=1)

    class _Simulation:
        step_count = 1

    with pytest.raises(ConfigurationError, match="directory"):
        checkpointer.save_simulation(_Simulation())
    with pytest.raises(ConfigurationError):
        checkpointer.load_simulation()
    assert checkpointer.saved_count == 0


def test_sharded_service_job_restores_from_a_held_checkpoint(monkeypatch):
    # A device loss in a sharded job drops the lost member and restores
    # the latest checkpoint through the sharded runner; the job must
    # end bit-identical to a solo fault-free run.
    restored_from = []
    restore = Checkpointer.restore_push

    def spy(self, ensemble):
        restored_from.append(self.directory)
        return restore(self, ensemble)

    monkeypatch.setattr(Checkpointer, "restore_push", spy)
    config = RunConfig(n_particles=600, steps=4, warmup=1,
                       group="2x iris-xe-max")
    service = PushService(fleet="2x iris-xe-max, 1x p630",
                          checkpoint_every=2)
    service.submit(JobSpec("wide", config, fault_plan="device-loss"))
    job = service.run().jobs["wide"]
    assert job.completed and job.restores == 1
    assert len(job.devices_lost) == 1
    assert restored_from == [None]
    assert job.digest == run_push(config).digest
