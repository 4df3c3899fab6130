"""Checkpointing: save and load ensembles, Yee grids and whole runs (.npz).

A practical necessity for long pushes and PIC runs.  Files are plain,
uncompressed ``numpy.savez`` archives, so they need no extra
dependencies and stay inspectable::

    repro.io.save_ensemble("state.npz", electrons)
    electrons = repro.io.load_ensemble("state.npz")

Layout, precision and the species table travel with the data; loading
reconstructs the ensemble bit-for-bit (component arrays compare equal).

Every ``save_*`` goes through one writer.  zlib barely shrinks float
particle data, so archives are stored uncompressed: about 36-38%
larger than compressed ones, and an order of magnitude faster to
write.  Archives written compressed by earlier versions still load
(``numpy.load`` reads both).  Writes are atomic: the archive is
written to a temporary file in the target directory and renamed onto
the final name, so an interrupted save never leaves a truncated file
under that name.  Every ``load_*`` raises
:class:`~repro.errors.ConfigurationError`, naming the path, for an
archive it cannot read (truncated, not a zip, missing a key, or with
inconsistent contents).

Three checkpoint granularities build on the same payload helpers:

* :func:`save_ensemble` / :func:`load_ensemble` — particle state only;
* :func:`save_push_state` / :func:`load_push_state` — particle state
  plus the (step, time) pair a push loop needs to resume exactly; the
  unit the step-granular :class:`~repro.resilience.Checkpointer`
  manages;
* :func:`save_simulation` / :func:`load_simulation` — a whole
  :class:`~repro.pic.simulation.PicSimulation` (grid fields + currents
  + every ensemble + solver clock + loop configuration), restoring a
  run that continues bit-identically to one that never stopped.
"""

from __future__ import annotations

import contextlib
import os
import zipfile
import zlib
from typing import Callable, TypeVar, Union

import numpy as np

from .errors import ConfigurationError
from .fields.grid import YeeGrid, YEE_STAGGER
from .fp import Precision
from .particles.ensemble import (COMPONENTS, Layout, ParticleEnsemble,
                                 make_ensemble)
from .particles.types import ParticleSpecies, ParticleTypeTable

__all__ = ["save_ensemble", "load_ensemble", "save_grid", "load_grid",
           "save_push_state", "load_push_state", "save_simulation",
           "load_simulation"]

_FORMAT_VERSION = 1

PathLike = Union[str, os.PathLike]
_T = TypeVar("_T")

#: What reading a damaged or foreign archive raises, besides
#: ConfigurationError (a missing file stays FileNotFoundError).
_UNREADABLE = (OSError, EOFError, KeyError, TypeError, ValueError,
               zipfile.BadZipFile, zlib.error)


def _write_archive(path: PathLike, kind: str, payload: dict) -> None:
    """Write ``payload`` as an uncompressed ``kind`` archive, atomically.

    Like ``numpy.savez``, a path without the ``.npz`` suffix gains it.
    The archive is written to ``<path>.tmp`` and renamed onto ``path``
    only once complete.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, format_version=np.int64(_FORMAT_VERSION),
                     kind=kind, **payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_archive(path: PathLike, kind: str, build: Callable[..., _T]) -> _T:
    """``build(data)`` over the ``kind`` archive at ``path``.

    Every way the archive can be unreadable or inconsistent raises
    :class:`ConfigurationError` naming ``path``.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            _check_archive(data, kind)
            return build(data)
    except FileNotFoundError:
        raise
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except _UNREADABLE as exc:
        raise ConfigurationError(
            f"{path}: unreadable repro {kind} checkpoint "
            f"({type(exc).__name__}: {exc})") from exc


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


def _ensemble_from(data, prefix: str = "") -> ParticleEnsemble:
    """Rebuild one ensemble from a loaded archive (inverse of payload)."""
    layout = Layout(str(data[f"{prefix}layout"]))
    precision = Precision(str(data[f"{prefix}precision"]))
    size = int(data[f"{prefix}size"])
    table = ParticleTypeTable()
    for name, mass, charge in zip(data[f"{prefix}species_names"],
                                  data[f"{prefix}species_masses"],
                                  data[f"{prefix}species_charges"]):
        table.register(ParticleSpecies(str(name), float(mass),
                                       float(charge)))
    ensemble = make_ensemble(size, layout, precision, table)
    for name in COMPONENTS:
        ensemble.component(name)[:] = data[f"{prefix}{name}"]
    ensemble.type_ids[:] = data[f"{prefix}type_ids"]
    return ensemble


def save_ensemble(path: PathLike, ensemble: ParticleEnsemble) -> None:
    """Write an ensemble (data + layout + precision + species) to ``path``."""
    _write_archive(path, "ensemble", _ensemble_payload(ensemble))


def load_ensemble(path: PathLike) -> ParticleEnsemble:
    """Reconstruct an ensemble written by :func:`save_ensemble`."""
    return _read_archive(path, "ensemble", _ensemble_from)


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


def _grid_from(data) -> YeeGrid:
    """Rebuild a Yee grid from a loaded archive."""
    grid = YeeGrid(tuple(data["origin"]), tuple(data["spacing"]),
                   tuple(int(d) for d in data["dims"]))
    for name in YEE_STAGGER:
        grid.fields[name][:] = data[f"field_{name}"]
    for name in ("jx", "jy", "jz"):
        grid.currents[name][:] = data[f"current_{name}"]
    return grid


def save_grid(path: PathLike, grid: YeeGrid, time: float = 0.0) -> None:
    """Write a Yee grid (geometry + fields + currents) to ``path``."""
    _write_archive(path, "yee-grid",
                   {"time": np.float64(time), **_grid_payload(grid)})


def load_grid(path: PathLike):
    """Reconstruct ``(grid, time)`` written by :func:`save_grid`."""
    return _read_archive(path, "yee-grid",
                         lambda data: (_grid_from(data), float(data["time"])))


def save_push_state(path: PathLike, ensemble: ParticleEnsemble,
                    time: float, step: int) -> None:
    """Write one step-granular push checkpoint: ensemble + (step, time).

    The unit the :class:`~repro.resilience.Checkpointer` writes every N
    steps; :func:`load_push_state` restores exactly the state a push
    loop needs to continue (``advance(..., start_time=time)``).
    """
    _write_archive(path, "push-state",
                   {"time": np.float64(time), "step": np.int64(step),
                    **_ensemble_payload(ensemble)})


def load_push_state(path: PathLike):
    """Reconstruct ``(step, time, ensemble)`` from :func:`save_push_state`."""
    return _read_archive(
        path, "push-state",
        lambda data: (int(data["step"]), float(data["time"]),
                      _ensemble_from(data)))


def save_simulation(path: PathLike, simulation) -> None:
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
    _write_archive(path, "pic-simulation", payload)


def load_simulation(path: PathLike, pusher=None):
    """Reconstruct a :class:`~repro.pic.simulation.PicSimulation`.

    ``pusher`` optionally overrides the momentum pusher (the pusher is
    stateless and not serialized; the default Boris matches
    :class:`~repro.pic.simulation.PicSimulation`'s own default).
    """
    from .fields.interpolation import Shape
    from .pic.simulation import PicSimulation

    def build(data):
        grid = _grid_from(data)
        ensembles = [_ensemble_from(data, prefix=f"e{index}_")
                     for index in range(int(data["n_ensembles"]))]
        simulation = PicSimulation(
            grid, ensembles, float(data["dt"]), pusher=pusher,
            deposition=str(data["deposition"]),
            interpolation=Shape[str(data["interpolation"])],
            field_solver=str(data["field_solver"]))
        simulation.step_count = int(data["step_count"])
        simulation.solver.time = float(data["time"])
        return simulation

    return _read_archive(path, "pic-simulation", build)


def _check_archive(data, expected_kind: str) -> None:
    if "kind" not in data or str(data["kind"]) != expected_kind:
        raise ConfigurationError(
            f"archive is not a repro {expected_kind} checkpoint")
    version = int(data["format_version"])
    if version > _FORMAT_VERSION:
        raise ConfigurationError(
            f"checkpoint format {version} is newer than this library "
            f"supports ({_FORMAT_VERSION})")
