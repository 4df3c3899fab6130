"""Charge and current deposition onto the Yee grid.

Deposition closes the PIC loop ("the grid values of the current J are
computed and added to Maxwell's equations forming the self-consistent
system").  Two current schemes are provided:

* :func:`deposit_current_direct` — straightforward form-factor
  weighting of ``q w v`` onto each staggered current component.
  Simple but does not satisfy the discrete continuity equation.
* :func:`deposit_current_esirkepov` — the charge-conserving scheme of
  Esirkepov (CPC 135, 2001): the current is built from the *motion* of
  the particle shape between two positions, so
  ``(rho1 - rho0)/dt + div J = 0`` holds to round-off — the property
  the test suite checks.

Both work at any of the implemented form-factor orders (NGP, CIC, TSC
— the paper's "fixed localized shape function"); the Esirkepov density
decomposition is shape-agnostic, only the stencil window widens.  All
deposition is periodic and vectorized over particles.

**Scatter order contract.**  Floating-point addition is not
associative, so the order in which a cell's contributions are summed
is part of every PIC digest.  The scatter sums each cell exactly as a
sequence of ``np.add.at`` calls would — target value first, then the
contributions window point by window point, particles in order within
a point — but does it with one ``np.bincount`` per target.  Its input
is a pair of preallocated buffers: ``[arange(cells) | window cell
indices]`` and ``[target | contributions]``, the tails in
window-point-major, particle-minor order.  The kernels write their
indices and contributions straight into the tails, so nothing is
concatenated or copied.  ``np.bincount`` adds its weights
sequentially, so each cell sums ``target + v1 + v2 + ...`` in
``np.add.at``'s order.  Seeding with the target matters because
several species deposit into one grid after a single
``clear_currents()``.

**Esirkepov core and ring.**  The Esirkepov window is ``w`` nodes per
axis (4 for CIC, 5 for TSC), wide enough for any sub-cell move.  A
particle whose node (``floor`` for CIC, ``round`` for TSC) stays the
same on every axis has both its old and new support inside the
window's core, nodes ``1 .. w-2``, so its form factors are exactly 0
on the ring around it.  Window point ``(l, i, j)`` of current ``J_a``
(``l`` along axis ``a``) then carries an exact ±0 whenever ``i`` or
``j`` is on the ring: every term of its weight has a ring factor.
Along ``l`` nothing is skipped, so each running sum keeps its
round-off residue.  So every particle scatters the ``w × (w-2)²``
core points and only the *movers* (particles whose node changes on
some axis) scatter the rest: the tail holds, point by point in the
same order, a segment of all ``N`` particles for a core point and a
segment of the ``M`` movers, in particle order, for a ring point —
``16N + 48M`` entries for CIC and ``45N + 80M`` for TSC instead of
``64N`` and ``125N``.

Skipping the zeros moves no bit.  ``np.bincount`` starts each cell at
+0.0, and a running sum that is zero is always +0.0 (``x + -x`` and
``+0.0 + -0.0`` both round to +0.0 by default), so adding ±0 leaves it
unchanged.  A zero matters only to a -0.0 target cell, which
``_scatter_add`` restores while only -0.0 contributions reach it: a
skipped +0.0 would have cleared it.  So when any current holds -0.0,
every particle counts as a mover, which rebuilds the full window.

**Accumulation precision contract.**  Deposition always *accumulates*
in float64 (:data:`ACCUMULATION_DTYPE`), whatever the ensemble's
storage precision: the grid's current arrays are float64, and a
single-precision scatter-add over many particles per cell loses the
small per-particle contributions to cancellation — which would break
the discrete continuity equation the Esirkepov scheme exists to
satisfy.  A float32 ensemble therefore yields *bit-identical* grid
currents across engine modes (the storage precision shows up in the
particle state, where the differential sweep's per-precision ULP
groups compare it), and :func:`charge_weight` deliberately upcasts
once, not per call.
"""

from __future__ import annotations

import weakref
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import SimulationError
from ..fields.grid import YeeGrid
from ..fields.interpolation import (Shape, axis_stencil, cell_fractions,
                                    flat_strides, periodic_rows)
from ..particles.ensemble import ParticleEnsemble

__all__ = ["ACCUMULATION_DTYPE", "charge_weight",
           "invalidate_charge_weight", "deposit_charge",
           "deposit_current_direct", "deposit_current_esirkepov"]

#: The dtype every deposition accumulates in (see the module docstring).
ACCUMULATION_DTYPE = np.dtype(np.float64)

#: Per-ensemble cache of the float64 ``q * w`` array.  Keyed weakly so
#: a discarded ensemble releases its entry.
_CHARGE_WEIGHT_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def charge_weight(ensemble: ParticleEnsemble) -> np.ndarray:
    """Cached float64 per-particle ``q * w`` [statC].

    Every deposition needs the charge-times-weight array; recomputing
    it per call costs an O(N) type-table gather plus an O(N) upcast of
    the weight component on the hot path — the same per-call-cast bug
    class PR 5 fixed in the Boris species LUTs.  The product is
    constant for ordinary ensembles, so it is computed once per
    ensemble and returned as a read-only array.

    Callers that mutate ``weight`` or the type ids (the ionization
    operator grows weights) must call
    :func:`invalidate_charge_weight` afterwards; everything in this
    repo that does so already does.
    """
    cached = _CHARGE_WEIGHT_CACHE.get(ensemble)
    if cached is not None and cached.shape[0] == ensemble.size:
        return cached
    qw = (ensemble.charges()
          * ensemble.component("weight").astype(ACCUMULATION_DTYPE))
    qw.setflags(write=False)
    _CHARGE_WEIGHT_CACHE[ensemble] = qw
    return qw


def invalidate_charge_weight(ensemble: Optional[ParticleEnsemble] = None
                             ) -> None:
    """Drop the cached ``q * w`` of ``ensemble`` (or of everyone)."""
    if ensemble is None:
        _CHARGE_WEIGHT_CACHE.clear()
    else:
        _CHARGE_WEIGHT_CACHE.pop(ensemble, None)


def _check_accumulator(target: np.ndarray) -> None:
    """Enforce the module's float64 accumulation contract."""
    if target.dtype != ACCUMULATION_DTYPE:
        raise SimulationError(
            f"deposition accumulates in {ACCUMULATION_DTYPE} by contract "
            f"(see repro.pic.deposition); got a {target.dtype} target")


def _scatter_buffers(cells: int, count: int
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """The ``np.bincount`` input for adding ``count`` values to a grid.

    Returns ``(index, weights)``, each ``cells + count`` long.  The
    head of ``index`` holds every cell's flat index; the caller writes
    its flat cell indices into ``index[cells:]`` and the contributions
    into ``weights[cells:]``, then calls :func:`_scatter_add`, which
    fills the head of ``weights`` with the target.  One pair serves
    every target of one grid in turn.
    """
    index = np.empty(cells + count, dtype=np.intp)
    index[:cells] = np.arange(cells)
    return index, np.empty(cells + count)


def _negative_zeros(values: np.ndarray) -> np.ndarray:
    """Where ``values`` holds -0.0."""
    return np.signbit(values) & (values == 0.0)


def _scatter_add(target: np.ndarray, index: np.ndarray,
                 weights: np.ndarray) -> None:
    """``np.add.at(target.flat, index[cells:], weights[cells:])``.

    The buffers come from :func:`_scatter_buffers`.  One
    ``np.bincount`` seeded with the target (see the module docstring)
    leaves every cell bit-identical to the ``np.add.at`` call.
    """
    _check_accumulator(target)
    cells = target.size
    weights[:cells] = target.ravel()
    head, values = weights[:cells], weights[cells:]
    # bincount starts each cell at +0.0, and 0.0 + -0.0 is +0.0, so a
    # -0.0 cell is restored while only -0.0 contributions reach it.
    negative_zero = _negative_zeros(head)
    sums = np.bincount(index, weights=weights, minlength=cells)
    if negative_zero.any():
        hit = ~_negative_zeros(values)
        negative_zero &= np.bincount(index[cells:][hit],
                                     minlength=cells) == 0
        sums[negative_zero] = -0.0
    target[...] = sums.reshape(target.shape)


def _deposit_scalar(target: np.ndarray, frac: np.ndarray,
                    values: np.ndarray, dims,
                    staggers: Tuple[float, float, float],
                    shape: Shape) -> None:
    """Scatter ``values`` onto ``target`` with the given form factor."""
    (ix, wx), (iy, wy), (iz, wz) = (
        axis_stencil(shape, frac[:, axis] - staggers[axis], dims, axis)
        for axis in range(3))
    # Window point (a, b, c) of particle p sits at [a, b, c, p].
    window = (ix.shape[0], iy.shape[0], iz.shape[0], values.size)
    cells = target.size
    index, weights = _scatter_buffers(cells, int(np.prod(window)))
    np.add(ix[:, None, None], (iy[:, None] + iz[None])[None],
           out=index[cells:].reshape(window))
    contribution = weights[cells:].reshape(window)
    np.multiply(wx[:, None, None] * wy[None, :, None], wz[None, None],
                out=contribution)
    contribution *= values
    _scatter_add(target, index, weights)


def deposit_charge(grid: YeeGrid, ensemble: ParticleEnsemble,
                   positions: Optional[np.ndarray] = None,
                   shape: Shape = Shape.CIC) -> np.ndarray:
    """Charge density at the grid nodes [statC/cm^3].

    ``positions`` overrides the ensemble's current positions (used by
    the continuity test to evaluate rho before and after a push).
    """
    pos = ensemble.positions() if positions is None else positions
    frac = cell_fractions(pos, grid.origin, grid.spacing)
    charge = charge_weight(ensemble) / grid.cell_volume
    rho = np.zeros(grid.dims)
    _deposit_scalar(rho, frac, charge, grid.dims, (0.0, 0.0, 0.0), shape)
    return rho


def deposit_current_direct(grid: YeeGrid, ensemble: ParticleEnsemble,
                           shape: Shape = Shape.CIC) -> None:
    """Deposit ``q w v`` onto the staggered current components.

    Adds into ``grid.currents`` (call ``grid.clear_currents()`` first
    for a fresh deposition).  Not charge-conserving; kept as the
    baseline the Esirkepov scheme is compared against.
    """
    pos = ensemble.positions()
    vel = ensemble.velocities()
    frac = cell_fractions(pos, grid.origin, grid.spacing)
    qw = charge_weight(ensemble) / grid.cell_volume
    staggers = {"jx": (0.5, 0.0, 0.0), "jy": (0.0, 0.5, 0.0),
                "jz": (0.0, 0.0, 0.5)}
    for axis, name in enumerate(("jx", "jy", "jz")):
        _deposit_scalar(grid.currents[name], frac, qw * vel[:, axis],
                        grid.dims, staggers[name], shape)


def _window_parameters(shape: Shape) -> Tuple[int, int]:
    """(extra margin below the shape's own support, window size).

    Sub-cell motion shifts the support by at most one node in either
    direction, so the common window is the shape's support plus one
    node on each side.
    """
    if shape is Shape.CIC:
        return 1, 4
    if shape is Shape.TSC:
        # Support spans 3 nodes about round(x); sub-cell motion can
        # shift the centre node by one either way.
        return 2, 5
    raise SimulationError(
        "Esirkepov deposition requires a CIC or TSC form factor "
        f"(got {shape}); NGP carries no sub-cell motion information")


def _shape_on_window(frac: np.ndarray, base: np.ndarray,
                     shape: Shape, margin: int, width: int) -> np.ndarray:
    """Form-factor values on the common window ``base-margin ..``.

    Returns shape ``(width, N)``; column sums are exactly 1 when the
    window covers the full support (guaranteed for sub-cell motion).
    """
    offsets = (np.arange(width) - margin)[:, None]
    distance = frac[None, :] - (base[None, :] + offsets)
    np.abs(distance, out=distance)
    if shape is Shape.CIC:
        np.subtract(1.0, distance, out=distance)
        return np.maximum(0.0, distance, out=distance)
    # TSC: quadratic spline of support 1.5 cells.
    inner = 0.75 - distance ** 2
    outer = 0.5 * (1.5 - distance) ** 2
    return np.where(distance <= 0.5, inner,
                    np.where(distance <= 1.5, outer, 0.0))


def _tail_views(tail: np.ndarray, width: int, n: int, m: int
                ) -> Tuple[np.ndarray, ...]:
    """The ``(core, top, bottom, sides)`` views of an Esirkepov tail.

    The tail holds window point ``(l, i, j)`` in window-point-major
    order: a segment of all ``n`` particles when ``i`` and ``j`` are
    both core indices (``1 .. width-2``), else a segment of the ``m``
    movers.  With ``k = width - 2``, four views partition it:

    * ``core`` ``(width, k, k, n)``: ``i`` and ``j`` in the core;
    * ``top`` and ``bottom`` ``(width, 1, width, m)``: ``i`` is ``0``,
      or ``width-1``;
    * ``sides`` ``(width, k, 2, m)``: ``i`` in the core, ``j`` is ``0``
      or ``width-1``.

    With ``m == n`` the tail is the full ``(width, width, width, n)``
    window in C order.
    """
    k = width - 2
    row = 2 * m + k * n            # one core row i: ring, core, ring
    cap = width * m                # row i = 0 or width-1
    block = 2 * cap + k * row      # one l

    def view(offset, shape, strides):
        return as_strided(tail[offset:], shape,
                          tuple(s * tail.itemsize for s in strides))

    return (view(cap + m, (width, k, k, n), (block, row, n, 1)),
            view(0, (width, 1, width, m), (block, cap, m, 1)),
            view(cap + k * row, (width, 1, width, m), (block, cap, m, 1)),
            view(cap, (width, k, 2, m), (block, row, m + k * n, 1)))


def _current_flux(ds_a: np.ndarray, s0_b: np.ndarray, ds_b: np.ndarray,
                  s0_c: np.ndarray, ds_c: np.ndarray, scale: np.ndarray,
                  out: np.ndarray, scratch: Tuple[np.ndarray, ...]) -> None:
    """``scale * cumsum_l(W_a)`` on one part of the window, into ``out``.

    ``W_a[l, i, j] = ds_a[l] * (s0_b[i] s0_c[j] + ds_b[i] s0_c[j] / 2
    + s0_b[i] ds_c[j] / 2 + ds_b[i] ds_c[j] / 3)`` is Esirkepov's
    density-decomposition weight; ``out`` is ``(width, i, j, p)`` and
    the inputs are ``(width, p)`` along ``l`` and ``(i or j, p)``
    across it.  Every element takes the same operations in the same
    order whatever part of the window it is computed in, so splitting
    the window moves no bit.

    The transverse plane and the running sum live in the three flat
    ``scratch`` buffers, and each slot of ``out`` is written once.
    ``out`` is a strided view of the scatter tail: an in-place ufunc on
    it would make numpy copy it first, since it cannot cheaply rule out
    the view overlapping itself.
    """
    plane, term, total = (buffer[:out[0].size].reshape(out.shape[1:])
                          for buffer in scratch)
    sb, db = s0_b[:, None], ds_b[:, None]
    sc, dc = s0_c[None], ds_c[None]
    np.multiply(sb, sc, out=plane)
    np.multiply(0.5 * db, sc, out=term)
    plane += term
    np.multiply(0.5 * sb, dc, out=term)
    plane += term
    np.multiply(db, dc, out=term)
    term /= 3.0
    plane += term
    # The cumulative sum along l: the same additions, in the same
    # order, as np.cumsum(axis=0).
    np.multiply(ds_a[0], plane, out=total)
    np.multiply(total, scale, out=out[0])
    for l in range(1, out.shape[0]):
        np.multiply(ds_a[l], plane, out=term)
        total += term
        np.multiply(total, scale, out=out[l])


def _columns(values: np.ndarray, movers: np.ndarray) -> np.ndarray:
    """The movers' columns (last axis) of ``values``, C-contiguous (a
    fancy-indexed subset would not be); ``values`` itself when every
    particle moves."""
    if movers.size == values.shape[-1]:
        return values
    return np.take(values, movers, axis=-1)


def _window_cells(cells_a: np.ndarray, cells_b: np.ndarray,
                  cells_c: np.ndarray, out: np.ndarray,
                  scratch: np.ndarray) -> None:
    """Flat cell index ``cells_a[l] + cells_b[i] + cells_c[j]`` of every
    point of one part of the window, into ``out``; ``scratch`` is a
    flat buffer (see :func:`_current_flux`)."""
    cross = scratch[:out[0].size].reshape(out.shape[1:])
    np.add(cells_b[:, None], cells_c[None], out=cross)
    for l in range(out.shape[0]):
        np.add(cells_a[l], cross, out=out[l])


def deposit_current_esirkepov(grid: YeeGrid, ensemble: ParticleEnsemble,
                              old_positions: np.ndarray,
                              dt: float,
                              shape: Shape = Shape.CIC) -> None:
    """Charge-conserving current deposition (Esirkepov).

    ``old_positions`` are the particle positions *before* the push (in
    the same, unwrapped coordinates as the current ensemble positions);
    each particle must move less than one cell per axis per step, which
    any CFL-respecting simulation guarantees.

    Adds into ``grid.currents`` so that the discrete continuity
    equation holds against :func:`deposit_charge` (with the same
    ``shape``) evaluated at the old and new positions.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise SimulationError(f"dt must be positive and finite, got {dt!r}")
    new_pos = ensemble.positions()
    old = np.asarray(old_positions, dtype=np.float64)
    if old.shape != new_pos.shape:
        raise SimulationError(
            f"old_positions shape {old.shape} does not match ensemble "
            f"({new_pos.shape})")
    f0 = cell_fractions(old, grid.origin, grid.spacing)
    f1 = cell_fractions(new_pos, grid.origin, grid.spacing)
    if np.any(np.abs(f1 - f0) >= 1.0):
        raise SimulationError(
            "a particle moved a full cell or more in one step; "
            "Esirkepov deposition requires sub-cell motion (reduce dt)")

    margin, width = _window_parameters(shape)
    dims = grid.dims
    qw = charge_weight(ensemble)
    names = ("jx", "jy", "jz")
    targets = [grid.currents[name] for name in names]
    for target in targets:
        _check_accumulator(target)
    snap = np.floor if shape is Shape.CIC else np.round
    node0 = snap(f0)
    base = [node0[:, a].astype(np.int64) for a in range(3)]
    s0 = [_shape_on_window(f0[:, a], base[a], shape, margin, width)
          for a in range(3)]
    ds = [_shape_on_window(f1[:, a], base[a], shape, margin, width)
          for a in range(3)]
    for a in range(3):
        ds[a] -= s0[a]
    # Flat-index contribution of every window point along each axis,
    # shape (w, N).
    strides = flat_strides(dims)
    axis_cells = [periodic_rows(base[x], range(-margin, width - margin),
                                dims[x], strides[x]) for x in range(3)]
    # A particle whose node does not change on any axis has both
    # supports inside the core, so its ring contributions are exact
    # zeros (see the module docstring).  Zeros matter only to a -0.0
    # target cell; then everyone takes the full window.
    if any(_negative_zeros(target).any() for target in targets):
        movers = np.arange(qw.size)
    else:
        movers = np.flatnonzero((snap(f1) != node0).any(axis=1))
    s0_m, ds_m, cells_m = ([_columns(v, movers) for v in values]
                           for values in (s0, ds, axis_cells))

    # One bincount input serves the three currents in turn (see
    # _tail_views for its layout).
    cells = grid.num_cells
    n, m = qw.size, movers.size
    k = width - 2
    index, weights = _scatter_buffers(
        cells, width * (k * k * n + (width * width - k * k) * m))
    index_parts = _tail_views(index[cells:], width, n, m)
    flux_parts = _tail_views(weights[cells:], width, n, m)
    # Room for the transverse plane of the largest part, the core.
    scratch = tuple(np.empty(k * k * n) for _ in range(3))
    cross = np.empty(k * k * n, dtype=np.intp)
    # Rows of the (l, i, j) window each part covers along i and j: the
    # core, each cap (one row, every column) and the sides (the core
    # rows, the first and last column).
    core, top, bottom = slice(1, -1), slice(None, 1), slice(-1, None)
    every, ends = slice(None), slice(None, None, width - 1)
    rows = ((core, core), (top, every), (bottom, every), (core, ends))
    # Transverse axis order per component keeps the (l, i, j) index
    # meaning (a-axis, b-axis, c-axis).
    transverse = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    cell_volume = grid.cell_volume
    spacing = grid.spacing
    for a in range(3):
        b, c = transverse[a]
        # J_a(i+1/2) = J_a(i-1/2) - (q w d_a / (V dt)) W_a: a cumulative
        # sum.  Rounding is symmetric in sign, so W * -s is bit-equal
        # to -(W * s).
        scale = -(qw * spacing[a] / (cell_volume * dt))
        everyone = (s0, ds, axis_cells, scale)
        moving = (s0_m, ds_m, cells_m, _columns(scale, movers))
        for (s, d, cl, sc), (i, j), out, out_cells in zip(
                (everyone, moving, moving, moving), rows,
                flux_parts, index_parts):
            _current_flux(d[a], s[b][i], d[b][i], s[c][j], d[c][j], sc,
                          out, scratch)
            _window_cells(cl[a], cl[b][i], cl[c][j], out_cells, cross)
        _scatter_add(targets[a], index, weights)
