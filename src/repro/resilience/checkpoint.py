"""Step-granular checkpoint management for long runs.

A :class:`Checkpointer` owns a directory of ``.npz`` checkpoints named
by step number, writes one every ``every`` steps, prunes old ones down
to ``keep``, and restores the latest on demand.  Two payload flavours
share the naming and pruning logic:

* **push state** (:meth:`save_push` / :meth:`load_push`) — one
  ensemble plus its (step, time) pair, for bare Boris-push loops
  (:class:`~repro.resilience.runner.ResilientPushEngine`, the
  ``checkpoint_resume`` example);
* **simulation state** (:meth:`save_simulation` /
  :meth:`load_simulation`) — a whole
  :class:`~repro.pic.simulation.PicSimulation`, offered to
  ``PicSimulation.run(checkpointer=...)`` after every step.

Restores are bit-identical (the `.npz` round trip preserves every
array exactly), which is what lets a device-loss recovery replay from
the last checkpoint and still produce the same final particle state as
an uninterrupted run.

Checkpoints are plain, uncompressed ``np.savez`` archives written by
:mod:`repro.io`: about 36-38% larger than compressed ones and several
times faster to write.  Compressed checkpoints from earlier versions
still restore, also from a directory that mixes both.  Each save is
atomic (temporary file, then rename), so an interrupted save never
leaves a truncated ``ckpt-<step>.npz`` for :meth:`latest_step` to
pick; an unreadable archive raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..observability.tracer import active_tracer
from .. import io

__all__ = ["Checkpointer"]

#: Checkpoint filename pattern: ``ckpt-<step>.npz``.
_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.npz$")


class Checkpointer:
    """Manages a directory of step-granular checkpoints.

    Args:
        directory: Where checkpoints live (created if missing).
        every: Save cadence in steps (``maybe_*`` saves when
            ``step % every == 0`` and ``step > 0``; explicit ``save_*``
            calls always write).
        keep: How many most-recent checkpoints survive pruning.
    """

    def __init__(self, directory, every: int = 10, keep: int = 3) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = int(every)
        self.keep = int(keep)
        self.saved_count = 0

    # -- directory bookkeeping -------------------------------------------

    def path_for(self, step: int) -> Path:
        """Path of the checkpoint for one step."""
        return self.directory / f"ckpt-{step:08d}.npz"

    def steps_on_disk(self) -> List[int]:
        """Checkpointed step numbers, ascending."""
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

    def should_save(self, step: int) -> bool:
        """Whether the cadence calls for a checkpoint at ``step``."""
        return step > 0 and step % self.every == 0

    def _prune(self) -> None:
        for step in self.steps_on_disk()[:-self.keep]:
            self.path_for(step).unlink()

    def gc(self) -> int:
        """Delete every checkpoint in the directory; returns the count.

        The end-of-life prune: once a run has completed successfully
        its checkpoints are pure disk liability (restoring one would
        *rewind* finished work), so the service layer calls this in a
        job's cleanup phase.  Emits a ``checkpoint:gc`` tracer instant
        recording how much was reclaimed.  Failed runs skip GC — their
        checkpoints are the evidence.
        """
        steps = self.steps_on_disk()
        reclaimed = 0
        for step in steps:
            path = self.path_for(step)
            reclaimed += path.stat().st_size
            path.unlink()
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant("checkpoint:gc", "recovery",
                           directory=str(self.directory),
                           pruned=len(steps), bytes=reclaimed)
        return len(steps)

    def _trace(self, step: int) -> None:
        self.saved_count += 1
        tracer = active_tracer()
        if tracer is not None:
            tracer.recovery("checkpoint", step=step,
                            saved=self.saved_count)

    # -- push-state flavour ----------------------------------------------

    def save_push(self, step: int, ensemble, time: float) -> Path:
        """Checkpoint a push loop's state at ``step``; returns the path."""
        path = self.path_for(step)
        io.save_push_state(path, ensemble, time, step)
        self._trace(step)
        self._prune()
        return path

    def maybe_save_push(self, step: int, ensemble, time: float
                        ) -> Optional[Path]:
        """:meth:`save_push` when the cadence says so, else None."""
        if self.should_save(step):
            return self.save_push(step, ensemble, time)
        return None

    def load_push(self, step: Optional[int] = None
                  ) -> Tuple[int, float, object]:
        """Restore ``(step, time, ensemble)`` (latest when unspecified)."""
        step = self.latest_step() if step is None else step
        if step is None:
            raise ConfigurationError(
                f"no checkpoints in {self.directory}")
        return io.load_push_state(self.path_for(step))

    # -- whole-simulation flavour ----------------------------------------

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
        step = self.latest_step() if step is None else step
        if step is None:
            raise ConfigurationError(
                f"no checkpoints in {self.directory}")
        return io.load_simulation(self.path_for(step), pusher=pusher)
