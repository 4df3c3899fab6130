"""Step-granular checkpoint management for long runs.

A :class:`Checkpointer` writes a checkpoint every ``every`` steps,
prunes old ones down to ``keep``, and restores the latest on demand.
It comes in two flavours that share the cadence, pruning and tracing:

* **on disk** (``Checkpointer(directory)``) — a directory of
  ``ckpt-<step>.npz`` archives that outlive the process.  Used by
  callers that name a directory: ``PicSimulation.run(checkpointer=...)``,
  the ``checkpoint_resume`` example and the multi-device scaling
  benchmark;
* **held** (``Checkpointer()``, ``directory=None``) — each checkpoint
  is a private in-memory copy of the ensemble (a
  :class:`HeldCheckpoint`).  Used for scratch checkpoints that only a
  failover inside the same process ever reads: the job service,
  ``run_push`` and the chaos self-check.

Two payloads exist:

* **push state** (:meth:`save_push` / :meth:`load_push`) — one
  ensemble plus its (step, time) pair, for bare Boris-push loops
  (:class:`~repro.resilience.runner.ResilientPushEngine`, the sharded
  runner).  Both flavours hold it;
* **simulation state** (:meth:`save_simulation` /
  :meth:`load_simulation`) — a whole
  :class:`~repro.pic.simulation.PicSimulation`, offered to
  ``PicSimulation.run(checkpointer=...)`` after every step.  On disk
  only: a held checkpointer raises
  :class:`~repro.errors.ConfigurationError`.

Restores are bit-identical in both flavours (the `.npz` round trip and
the held copy preserve every array exactly), which is what lets a
device-loss recovery replay from the last checkpoint and still produce
the same final particle state as an uninterrupted run.

On-disk checkpoints are plain, uncompressed ``np.savez`` archives
written by :mod:`repro.io`: about 36-38% larger than compressed ones
and several times faster to write.  Compressed checkpoints from
earlier versions still restore, also from a directory that mixes both.
Each save is atomic (temporary file, then rename), so an interrupted
save never leaves a truncated ``ckpt-<step>.npz`` for
:meth:`latest_step` to pick; an unreadable archive raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..observability.tracer import active_tracer
from ..particles.ensemble import COMPONENTS, ParticleEnsemble
from .. import io

__all__ = ["Checkpointer", "HeldCheckpoint"]

#: Checkpoint filename pattern: ``ckpt-<step>.npz``.
_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.npz$")


class HeldCheckpoint(NamedTuple):
    """One in-memory push checkpoint: what a held save returns.

    ``ensemble`` is a private copy; nothing else references it.
    :meth:`stat` mirrors ``Path.stat`` so size accounting reads the
    same for both flavours.
    """

    step: int
    time: float
    ensemble: ParticleEnsemble

    def stat(self) -> os.stat_result:
        """A stat record whose ``st_size`` is the bytes held."""
        return os.stat_result((0,) * 6 + (self.ensemble.nbytes,)
                              + (0,) * 3)


class Checkpointer:
    """Manages step-granular checkpoints, on disk or held in memory.

    Args:
        directory: Where checkpoints live (created if missing).  None
            holds them in memory for the life of the checkpointer.
        every: Save cadence in steps (``maybe_*`` saves when
            ``step % every == 0`` and ``step > 0``; explicit ``save_*``
            calls always write).
        keep: How many most-recent checkpoints survive pruning.
    """

    def __init__(self, directory=None, every: int = 10,
                 keep: int = 3) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = None
        if directory is not None:
            self.directory = Path(directory)
            self.directory.mkdir(parents=True, exist_ok=True)
        self._held: Dict[int, HeldCheckpoint] = {}
        self.every = int(every)
        self.keep = int(keep)
        self.saved_count = 0

    # -- bookkeeping -------------------------------------------------------

    def path_for(self, step: int) -> Path:
        """Path of the checkpoint for one step (on disk only)."""
        if self.directory is None:
            raise ConfigurationError(
                "a held checkpointer (directory=None) writes no files; "
                "PIC simulation checkpoints need a directory")
        return self.directory / f"ckpt-{step:08d}.npz"

    def steps_on_disk(self) -> List[int]:
        """Checkpointed step numbers, ascending (held ones too)."""
        if self.directory is None:
            return sorted(self._held)
        steps = []
        for name in os.listdir(self.directory):
            match = _CKPT_RE.match(name)
            if match:
                steps.append(int(match.group(1)))
        return sorted(steps)

    def latest_step(self) -> Optional[int]:
        """Most recent checkpointed step (None when empty)."""
        steps = self.steps_on_disk()
        return steps[-1] if steps else None

    def _step_to_load(self, step: Optional[int]) -> int:
        """``step``, or the latest one; raises when nothing is saved."""
        step = self.latest_step() if step is None else step
        if step is None:
            raise ConfigurationError(
                f"no checkpoints in {self.directory or 'memory'}")
        return step

    def should_save(self, step: int) -> bool:
        """Whether the cadence calls for a checkpoint at ``step``."""
        return step > 0 and step % self.every == 0

    def _drop(self, step: int) -> int:
        """Delete one checkpoint; returns the bytes it took."""
        if self.directory is None:
            return self._held.pop(step).stat().st_size
        path = self.path_for(step)
        size = path.stat().st_size
        path.unlink()
        return size

    def _prune(self) -> None:
        for step in self.steps_on_disk()[:-self.keep]:
            self._drop(step)

    def gc(self) -> int:
        """Delete every checkpoint; returns the count.

        The end-of-life prune: once a run has completed successfully
        its checkpoints are pure liability (restoring one would
        *rewind* finished work), so the service layer calls this in a
        job's cleanup phase.  Emits a ``checkpoint:gc`` tracer instant
        recording how many bytes were reclaimed.  Failed runs skip GC
        — their checkpoints are the evidence.
        """
        steps = self.steps_on_disk()
        reclaimed = sum(self._drop(step) for step in steps)
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant("checkpoint:gc", "recovery",
                           directory=None if self.directory is None
                           else str(self.directory),
                           pruned=len(steps), bytes=reclaimed)
        return len(steps)

    def _trace(self, step: int) -> None:
        self.saved_count += 1
        tracer = active_tracer()
        if tracer is not None:
            tracer.recovery("checkpoint", step=step,
                            saved=self.saved_count)

    # -- push-state flavour ----------------------------------------------

    def save_push(self, step: int, ensemble, time: float
                  ) -> Union[Path, HeldCheckpoint]:
        """Checkpoint a push loop's state at ``step``; returns the path
        (on disk) or the :class:`HeldCheckpoint`."""
        if self.directory is None:
            saved = self._held[step] = HeldCheckpoint(
                step, time, ensemble.copy())
        else:
            saved = self.path_for(step)
            io.save_push_state(saved, ensemble, time, step)
        self._trace(step)
        self._prune()
        return saved

    def maybe_save_push(self, step: int, ensemble, time: float
                        ) -> Union[Path, HeldCheckpoint, None]:
        """:meth:`save_push` when the cadence says so, else None."""
        if self.should_save(step):
            return self.save_push(step, ensemble, time)
        return None

    def load_push(self, step: Optional[int] = None
                  ) -> Tuple[int, float, object]:
        """Restore ``(step, time, ensemble)`` (latest when unspecified).

        The ensemble is always a fresh copy the caller may mutate.
        """
        step = self._step_to_load(step)
        if self.directory is None:
            if step not in self._held:
                raise ConfigurationError(f"no checkpoint held at step {step}")
            held = self._held[step]
            return held.step, held.time, held.ensemble.copy()
        return io.load_push_state(self.path_for(step))

    def restore_push(self, ensemble) -> Tuple[int, float]:
        """Overwrite ``ensemble`` in place with the latest push
        checkpoint; returns its ``(step, time)``.

        In place, so every engine and view sharing the ensemble's
        arrays sees the restored state.
        """
        step, time, restored = self.load_push()
        for name in COMPONENTS:
            ensemble.component(name)[:] = restored.component(name)
        ensemble.type_ids[:] = restored.type_ids
        return step, time

    # -- whole-simulation flavour (on disk only) -------------------------

    def save_simulation(self, simulation) -> Path:
        """Checkpoint a PIC simulation at its current step count."""
        path = self.path_for(simulation.step_count)
        io.save_simulation(path, simulation)
        self._trace(simulation.step_count)
        self._prune()
        return path

    def maybe_save_simulation(self, simulation) -> Optional[Path]:
        """:meth:`save_simulation` at the cadence, else None."""
        if self.should_save(simulation.step_count):
            return self.save_simulation(simulation)
        return None

    def load_simulation(self, step: Optional[int] = None, pusher=None):
        """Restore the PIC simulation (latest checkpoint by default)."""
        return io.load_simulation(self.path_for(self._step_to_load(step)),
                                  pusher=pusher)
