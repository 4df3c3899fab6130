"""The compressed archive writer that ``repro.io`` used to have.

``repro.io`` now writes plain, uncompressed ``np.savez`` archives.
Checkpoints written earlier are ``np.savez_compressed`` archives with
the same keys; this module keeps that writer (its four ``save_*``
functions and the payload helpers they used) so tests can check that
such archives still load bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.fields.grid import YeeGrid, YEE_STAGGER
from repro.particles.ensemble import COMPONENTS, ParticleEnsemble

__all__ = ["save_ensemble", "save_grid", "save_push_state",
           "save_simulation"]

_FORMAT_VERSION = 1


def _ensemble_payload(ensemble: ParticleEnsemble, prefix: str = "") -> dict:
    """Flat array dict describing one ensemble (``prefix`` namespaces it)."""
    table = ensemble.type_table
    payload = {
        f"{prefix}layout": ensemble.layout.value,
        f"{prefix}precision": ensemble.precision.value,
        f"{prefix}size": np.int64(ensemble.size),
        f"{prefix}type_ids": np.ascontiguousarray(ensemble.type_ids),
        f"{prefix}species_names": np.array([s.name for s in table]),
        f"{prefix}species_masses": np.array([s.mass for s in table]),
        f"{prefix}species_charges": np.array([s.charge for s in table]),
    }
    for name in COMPONENTS:
        payload[f"{prefix}{name}"] = \
            np.ascontiguousarray(ensemble.component(name))
    return payload


def save_ensemble(path, ensemble: ParticleEnsemble) -> None:
    """Write an ensemble (data + layout + precision + species) to ``path``."""
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        kind="ensemble",
        **_ensemble_payload(ensemble),
    )


def _grid_payload(grid: YeeGrid) -> dict:
    """Flat array dict describing one Yee grid."""
    payload = {
        "origin": np.asarray(grid.origin),
        "spacing": np.asarray(grid.spacing),
        "dims": np.asarray(grid.dims, dtype=np.int64),
    }
    payload.update({f"field_{name}": grid.fields[name]
                    for name in YEE_STAGGER})
    payload.update({f"current_{name}": grid.currents[name]
                    for name in ("jx", "jy", "jz")})
    return payload


def save_grid(path, grid: YeeGrid, time: float = 0.0) -> None:
    """Write a Yee grid (geometry + fields + currents) to ``path``."""
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        kind="yee-grid",
        time=np.float64(time),
        **_grid_payload(grid),
    )


def save_push_state(path, ensemble: ParticleEnsemble,
                    time: float, step: int) -> None:
    """Write one step-granular push checkpoint: ensemble + (step, time).

    The unit the :class:`~repro.resilience.Checkpointer` writes every N
    steps; :func:`load_push_state` restores exactly the state a push
    loop needs to continue (``advance(..., start_time=time)``).
    """
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        kind="push-state",
        time=np.float64(time),
        step=np.int64(step),
        **_ensemble_payload(ensemble),
    )


def save_simulation(path, simulation) -> None:
    """Write a whole :class:`~repro.pic.simulation.PicSimulation`.

    Captures everything a bit-identical resume needs: the grid (fields
    *and* currents), every ensemble, the solver clock, the step count
    and the loop configuration (dt, deposition scheme, interpolation
    shape, field-solver family).
    """
    payload = {
        "time": np.float64(simulation.time),
        "step_count": np.int64(simulation.step_count),
        "dt": np.float64(simulation.dt),
        "deposition": simulation.deposition,
        "interpolation": simulation.interpolation.name,
        "field_solver": simulation.solver_kind,
        "n_ensembles": np.int64(len(simulation.ensembles)),
    }
    payload.update(_grid_payload(simulation.grid))
    for index, ensemble in enumerate(simulation.ensembles):
        payload.update(_ensemble_payload(ensemble, prefix=f"e{index}_"))
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        kind="pic-simulation",
        **payload,
    )
