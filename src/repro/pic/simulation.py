"""The self-consistent Particle-in-Cell loop.

One :class:`PicSimulation` step performs the conventional four stages
(Section 2 of the paper):

1. interpolate E and B from the Yee grid to the particles (CIC);
2. push the particles (Boris by default);
3. deposit the current of the motion onto the grid
   (charge-conserving Esirkepov by default);
4. advance the fields with the FDTD solver, driven by that current.

Positions are wrapped into the periodic box *after* deposition, since
the Esirkepov scheme needs the unwrapped displacement.

The per-species stages are public methods (:meth:`PicSimulation.gather`,
:meth:`PicSimulation.push`, :meth:`PicSimulation.deposit`).  Their
order is written once, in :func:`~repro.pic.engine.record_step_graph`:
:meth:`PicSimulation.step` runs that graph's bodies on the host, and
the graph-lowered :class:`~repro.pic.engine.PicEngine` replays the same
recording through a simulated queue.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..core.boris import BorisPusher
from ..core.pushers import MomentumPusher
from ..errors import SimulationError
from ..fields.grid import YeeGrid
from ..fields.interpolation import Shape, interpolate_from_yee_grid
from ..observability.tracer import trace_span
from ..particles.ensemble import COMPONENTS, ParticleEnsemble
from .deposition import deposit_current_direct, deposit_current_esirkepov
from .fdtd import FdtdSolver

__all__ = ["PicSimulation"]

#: Valid deposition scheme names.
DEPOSITIONS = ("esirkepov", "direct", "none")


class PicSimulation:
    """A periodic electromagnetic PIC simulation.

    Args:
        grid: The Yee grid carrying fields and currents (initialise its
            fields before running, e.g. via ``grid.fill_from_source``).
        ensembles: One ensemble or a sequence of them (e.g. electrons
            and ions).
        dt: Time step [s]; must satisfy the FDTD CFL condition.
        pusher: Momentum pusher (default Boris).
        deposition: "esirkepov" (charge-conserving, default), "direct",
            or "none" (external-field test mode — particles do not feed
            back on the fields).
        interpolation: Particle form factor for field gathering.
        field_solver: "fdtd" (Yee leapfrog, default) or "spectral"
            (FFT-based PSATD; dispersion-free, no Courant limit) — the
            two Maxwell-solver families the paper's Section 2 names.
        operators: Monte Carlo operators
            (:class:`~repro.pic.montecarlo.PicOperator`) applied after
            the push and before the deposit, in order, once per
            ensemble per step.  Their draws are counter-based on the
            step index, so this loop and the graph-lowered
            :class:`~repro.pic.engine.PicEngine` stay bit-exact.
            Operators are not part of checkpoints — a restored
            simulation must be handed them again.
    """

    def __init__(self, grid: YeeGrid,
                 ensembles: Union[ParticleEnsemble,
                                  Sequence[ParticleEnsemble]],
                 dt: float,
                 pusher: Optional[MomentumPusher] = None,
                 deposition: str = "esirkepov",
                 interpolation: Shape = Shape.CIC,
                 field_solver: str = "fdtd",
                 operators: Sequence = ()) -> None:
        if deposition not in DEPOSITIONS:
            raise SimulationError(
                f"deposition must be one of {DEPOSITIONS}, "
                f"got {deposition!r}")
        if deposition == "esirkepov" and interpolation is Shape.NGP:
            raise SimulationError(
                "Esirkepov deposition needs a CIC or TSC form factor; "
                "NGP carries no sub-cell motion information")
        self.grid = grid
        if isinstance(ensembles, ParticleEnsemble):
            ensembles = [ensembles]
        self.ensembles: List[ParticleEnsemble] = list(ensembles)
        if not self.ensembles:
            raise SimulationError("need at least one particle ensemble")
        if field_solver == "fdtd":
            self.solver = FdtdSolver(grid, dt)
        elif field_solver == "spectral":
            from .spectral import SpectralSolver
            self.solver = SpectralSolver(grid, dt)
        else:
            raise SimulationError(
                f"field_solver must be 'fdtd' or 'spectral', "
                f"got {field_solver!r}")
        #: Which Maxwell-solver family runs ("fdtd" or "spectral");
        #: checkpoints record it so restore rebuilds the same solver.
        self.solver_kind = field_solver
        self.dt = float(dt)
        self.pusher = pusher if pusher is not None else BorisPusher()
        self.deposition = deposition
        self.interpolation = interpolation
        self.operators = list(operators)
        self.step_count = 0
        #: The step graph :meth:`step` runs, recorded on the first step.
        self._graph = None

    @property
    def time(self) -> float:
        """Current simulation time [s]."""
        return self.solver.time

    # -- per-species stages (shared with the graph-lowered PicEngine) ---

    def gather(self, species: int):
        """Interpolate E and B from the grid to ensemble ``species``."""
        return interpolate_from_yee_grid(
            self.grid, self.ensembles[species].positions(),
            self.interpolation)

    def push(self, species: int, fields):
        """Push ensemble ``species``; returns its pre-push positions."""
        ensemble = self.ensembles[species]
        old_positions = ensemble.positions()
        self.pusher.push(ensemble, fields, self.dt)
        return old_positions

    def deposit(self, species: int, old_positions) -> None:
        """Deposit the current of ensemble ``species``'s last move (none
        for ``deposition="none"``), then wrap its positions into the
        periodic box."""
        ensemble = self.ensembles[species]
        if self.deposition == "esirkepov":
            deposit_current_esirkepov(self.grid, ensemble, old_positions,
                                      self.dt, shape=self.interpolation)
        elif self.deposition == "direct":
            deposit_current_direct(self.grid, ensemble,
                                   shape=self.interpolation)
        ensemble.set_positions(
            self.grid.wrap_positions(ensemble.positions()))

    def step(self) -> None:
        """Advance fields and particles by one time step.

        Runs the bodies of the step graph
        (:func:`~repro.pic.engine.record_step_graph`, recorded on the
        first step without a memory manager) in order on the host.
        Under an active tracer each node is a nested wall-clock span
        named by its tag (``gather``, ``push``, ``mc:*``,
        ``deposit``/``wrap``, ``field-advance``) — the per-stage
        breakdown a VTune timeline would show for the real Hi-Chi loop.
        """
        if self._graph is None:
            from .engine import record_step_graph
            self._graph = record_step_graph(self)
        with trace_span("pic-step", "pic", step=self.step_count):
            self.grid.clear_currents()
            for node in self._graph:
                with trace_span(node.tag, "pic", n_items=node.n_items):
                    node.body()
        self.step_count += 1

    def run(self, steps: int,
            callback: Optional[Callable[["PicSimulation"], None]] = None,
            energy_history=None, checkpointer=None) -> None:
        """Advance ``steps`` steps.

        ``callback(simulation)`` fires after every step;
        ``energy_history`` (an
        :class:`~repro.pic.diagnostics.EnergyHistory`) is sampled after
        every step as well, including an initial sample at the start.
        ``checkpointer`` (a :class:`~repro.resilience.Checkpointer`) is
        offered the simulation after every step and writes a
        step-granular checkpoint at its configured cadence.
        """
        if steps < 0:
            raise SimulationError(f"steps must be >= 0, got {steps}")
        if energy_history is not None:
            energy_history.record(self.time, self.grid, self.ensembles)
        for _ in range(steps):
            self.step()
            if energy_history is not None:
                energy_history.record(self.time, self.grid, self.ensembles)
            if checkpointer is not None:
                checkpointer.maybe_save_simulation(self)
            if callback is not None:
                callback(self)

    # -- checkpointing ---------------------------------------------------

    def save_checkpoint(self, path) -> None:
        """Write the full simulation state (grid + particles + clocks).

        The archive restores via :meth:`load_checkpoint` to a
        simulation that continues *bit-identically* to one that never
        stopped — the guarantee the resilience layer's device-loss
        recovery builds on (see ``docs/RESILIENCE.md``).
        """
        from .. import io
        io.save_simulation(path, self)

    @classmethod
    def load_checkpoint(cls, path, pusher=None) -> "PicSimulation":
        """Reconstruct a simulation saved by :meth:`save_checkpoint`."""
        from .. import io
        return io.load_simulation(path, pusher=pusher)

    def check_state(self) -> None:
        """Raise :class:`SimulationError` on a NaN/inf anywhere in the
        state: grid fields, grid currents, or any particle component."""
        arrays = [(f"field component {name!r}", array)
                  for name, array in self.grid.fields.items()]
        arrays += [(f"current {name!r}", array)
                   for name, array in self.grid.currents.items()]
        for species, ensemble in enumerate(self.ensembles):
            arrays += [(f"particle component {name!r} of ensemble "
                        f"{species}", ensemble.component(name))
                       for name in COMPONENTS]
        for what, array in arrays:
            if not np.all(np.isfinite(array)):
                raise SimulationError(
                    f"non-finite {what} at step {self.step_count}")
