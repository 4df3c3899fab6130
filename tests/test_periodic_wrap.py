"""The PIC periodic wraps, bit for bit against ``np.mod``.

``periodic_rows`` wraps stencil node indices by table lookup,
``axis_stencil`` builds its stencils as rows through it, and
``RegularGrid3D.wrap_positions`` divides only for box-crossers.  Each
must give exactly the integers or floats of the plain ``np.mod``
formula it replaced, compared here in raw bits.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fields.grid import RegularGrid3D
from repro.fields.interpolation import (Shape, axis_stencil, flat_strides,
                                        periodic_rows, shape_weights)


def reference_rows(node, shifts, n, stride):
    """The wrap :func:`periodic_rows` replaces."""
    node = np.asarray(node, dtype=np.int64)
    return np.mod(node + np.asarray(shifts)[:, None], n) * stride


def assert_same_ints(got, expected):
    assert got.dtype == np.int64
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class _CountingMod:
    """Stands in for ``np.mod`` and counts its calls."""

    def __init__(self):
        self.calls = 0
        self._mod = np.mod

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._mod(*args, **kwargs)


SHIFTS = st.sampled_from([range(1), range(2), range(-1, 2),
                          range(-1, 3), range(-2, 3), (2, -1, 0)])


class TestPeriodicRows:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), stride=st.integers(1, 200),
           shifts=SHIFTS, periods=st.integers(-2, 2),
           nodes=st.lists(st.integers(-1, 12), max_size=40))
    def test_near_the_box_equals_np_mod(self, n, stride, shifts, periods,
                                        nodes):
        """In-box nodes and nodes up to two periods out."""
        node = np.asarray(nodes, dtype=np.int64) + periods * n
        assert_same_ints(periodic_rows(node, shifts, n, stride),
                         reference_rows(node, shifts, n, stride))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), stride=st.integers(1, 200),
           shifts=SHIFTS,
           nodes=st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=1,
                          max_size=40))
    def test_far_out_equals_np_mod(self, n, stride, shifts, nodes):
        """Far-away unwrapped nodes; spread ones take the ``np.mod``
        path."""
        node = np.asarray(nodes, dtype=np.int64)
        assert_same_ints(periodic_rows(node, shifts, n, stride),
                         reference_rows(node, shifts, n, stride))

    def test_empty(self):
        rows = periodic_rows(np.empty(0, dtype=np.int64), range(-1, 3),
                             8, 64)
        assert_same_ints(rows, np.empty((4, 0), dtype=np.int64))

    def test_one_cell_axis(self):
        node = np.array([-3, -1, 0, 0, 1, 5], dtype=np.int64)
        for shifts in (range(1), range(2), range(-1, 3)):
            rows = periodic_rows(node, shifts, 1, 7)
            assert_same_ints(rows, reference_rows(node, shifts, 1, 7))
            assert not rows.any()

    def test_in_box_nodes_are_looked_up(self, monkeypatch):
        """A stencil near the box divides only to build its table."""
        counting = _CountingMod()
        monkeypatch.setattr(np, "mod", counting)
        node = np.tile(np.arange(8, dtype=np.int64), 16)
        rows = periodic_rows(node, range(-1, 3), 8, 64)
        assert counting.calls == 0
        assert_same_ints(rows, reference_rows(node, range(-1, 3), 8, 64))

    def test_wide_spans_fall_back_to_np_mod(self, monkeypatch):
        counting = _CountingMod()
        monkeypatch.setattr(np, "mod", counting)
        node = np.arange(0, 800, 7, dtype=np.int64)
        rows = periodic_rows(node, range(2), 8, 64)
        assert counting.calls == 1
        assert_same_ints(rows, reference_rows(node, range(2), 8, 64))

    def test_rows_are_c_contiguous(self):
        rows = periodic_rows(np.arange(10), range(-1, 2), 4, 3)
        assert rows.flags.c_contiguous


class TestAxisStencil:
    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from(list(Shape)),
           dims=st.tuples(st.integers(1, 6), st.integers(1, 6),
                          st.integers(1, 6)),
           axis=st.integers(0, 2),
           fractions=st.lists(
               st.floats(-20.0, 20.0, allow_nan=False)
               | st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1.5, 5.999999]),
               max_size=30))
    def test_rows_equal_transposed_shape_weights(self, shape, dims, axis,
                                                 fractions):
        frac = np.asarray(fractions, dtype=np.float64)
        offsets, weights = axis_stencil(shape, frac, dims, axis)
        indices, expected = shape_weights(shape, frac)
        wrapped = np.mod(indices.T, dims[axis]) * flat_strides(dims)[axis]
        assert_same_ints(offsets, wrapped)
        assert_same_bits(weights, np.ascontiguousarray(expected.T))
        assert offsets.flags.c_contiguous and weights.flags.c_contiguous
        assert offsets.shape == (shape.support, frac.size)

    def test_shape_weights_keeps_its_particle_major_contract(self):
        indices, weights = shape_weights(Shape.TSC, np.array([3.0, -0.25]))
        assert indices.shape == weights.shape == (2, 3)
        assert indices.tolist() == [[2, 3, 4], [-1, 0, 1]]
        assert weights[0].tolist() == [0.125, 0.75, 0.125]


#: Offsets from the origin where ``np.mod`` is exact, rounds or wraps.
EDGE_OFFSETS = [0.0, -0.0, 1.0, -1.0, -1e-300, 1e-300, np.nan, np.inf,
                -np.inf, 0.5, 3.75, -2.5, 100.0, -1e6]


@st.composite
def _grids(draw):
    origin = tuple(draw(st.sampled_from([0.0, -0.0, -3.25, 1.5, -1e3, 7.0]))
                   for _ in range(3))
    spacing = tuple(draw(st.sampled_from([0.25, 0.5, 1.0, 0.3, 2e-5]))
                    for _ in range(3))
    dims = tuple(draw(st.integers(1, 9)) for _ in range(3))
    return RegularGrid3D(origin, spacing, dims)


class TestWrapPositions:
    @settings(max_examples=200, deadline=None)
    @given(grid=_grids(), data=st.data())
    @example(grid=RegularGrid3D((0.0, -0.0, -2.0), (0.5, 1.0, 2.0),
                                (4, 3, 2)), data=None)
    def test_equals_np_mod(self, grid, data):
        org = np.asarray(grid.origin)
        ext = np.asarray(grid.extent)
        if data is None:
            # Each edge offset on every axis, and exactly the extent.
            offsets = np.repeat(np.asarray(EDGE_OFFSETS)[:, None], 3, axis=1)
            pos = org + offsets
            pos = np.concatenate([pos, (org + ext)[None], org[None]])
        else:
            pick = st.sampled_from(EDGE_OFFSETS) | st.floats(
                -1e3, 1e3, allow_nan=False)
            rows = data.draw(st.lists(st.tuples(pick, pick, pick),
                                      max_size=20))
            extent_row = data.draw(st.booleans())
            pos = org + np.asarray(rows, dtype=np.float64).reshape(-1, 3)
            if extent_row:
                pos = np.concatenate([pos, (org + ext)[None]])
        with np.errstate(invalid="ignore"):
            expected = org + np.mod(pos - org, ext)
            got = grid.wrap_positions(pos)
        assert_same_bits(got, expected)

    @pytest.mark.parametrize("origin", [0.0, -0.0])
    def test_signed_zeros(self, origin):
        """Zero positions of either sign against either signed-zero
        origin (``np.mod`` turns a -0.0 offset into +0.0)."""
        grid = RegularGrid3D((origin,) * 3, (1.0, 1.0, 1.0), (2, 2, 2))
        pos = np.array([[-0.0, 0.0, 2.0], [0.0, -0.0, -0.0]])
        org = np.asarray(grid.origin)
        assert_same_bits(grid.wrap_positions(pos),
                         org + np.mod(pos - org, 2.0))

    def test_tiny_negative_offset_rounds_to_the_extent(self):
        grid = RegularGrid3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
        got = grid.wrap_positions(np.array([[-1e-300, 1.0, 4.0]]))
        assert got.tolist() == [[4.0, 1.0, 0.0]]

    def test_returns_a_new_array(self):
        grid = RegularGrid3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
        pos = np.array([[0.5, 1.5, 2.5], [4.5, -0.5, 1.0]])
        before = pos.copy()
        got = grid.wrap_positions(pos)
        assert got is not pos and not np.shares_memory(got, pos)
        assert_same_bits(pos, before)

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (2, 4, 3)])
    def test_any_leading_shape(self, shape):
        grid = RegularGrid3D((1.0, -2.0, 0.5), (0.5, 1.0, 2.0), (4, 3, 5))
        rng = np.random.default_rng(7)
        pos = rng.uniform(-20.0, 20.0, shape)
        org, ext = np.asarray(grid.origin), np.asarray(grid.extent)
        assert_same_bits(grid.wrap_positions(pos),
                         org + np.mod(pos - org, ext))
