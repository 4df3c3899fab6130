"""Blocked replay of ranged push nodes, and the zero-copy views under it.

``GraphExecutor`` runs a group of ranged nodes block by block over
:data:`~repro.oneapi.graph.BLOCK_ITEMS`-item slices, on views of the
engine's ensemble and field arrays.  Every push-step operation is
elementwise per particle, so the result must equal whole-range kernel
calls in raw bits, whatever the layout, precision, scenario, fusion
mode and particle count (including counts that are not a multiple of
the block).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import paper_time_step, paper_wave
from repro.bench.calibration import cost_model_for, device_by_name
from repro.bench.scenarios import paper_ensemble
from repro.core.kernels import (boris_push_precalculated,
                                kinetic_energy_diagnostic, sample_fields)
from repro.errors import GraphError, LayoutError
from repro.fields.precalculated import FIELD_COMPONENTS, PrecalculatedField
from repro.fp import Precision
from repro.oneapi.graph import (BLOCK_ITEMS, GraphExecutor, KernelGraph,
                                KernelNode)
from repro.oneapi.kernelspec import KernelSpec
from repro.oneapi.queue import Queue, RuntimeConfig
from repro.oneapi.runtime import SCENARIOS, PushEngine
from repro.particles.ensemble import COMPONENTS, Layout, make_ensemble

B = BLOCK_ITEMS
STEPS = 2


def _queue():
    device = device_by_name("iris-xe-max")
    return Queue(device, RuntimeConfig(runtime="dpcpp"),
                 cost_model_for(device))


def _bits(ensemble):
    return [ensemble.component(name).tobytes() for name in COMPONENTS] \
        + [ensemble.type_ids.tobytes()]


def _field_bits(precalc):
    return [precalc.component(name).tobytes() for name in FIELD_COMPONENTS]


# -- blocked engine vs whole-range kernels -----------------------------------

@settings(max_examples=30, deadline=None)
@given(n=st.one_of(st.sampled_from([0, 1, B - 1, B, B + 1]),
                   st.integers(1, B - 1).map(lambda r: 2 * B + r)),
       layout=st.sampled_from(list(Layout)),
       precision=st.sampled_from(list(Precision)),
       scenario=st.sampled_from(SCENARIOS),
       fusion=st.sampled_from([None, False, True]),
       diagnostics=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_blocked_engine_matches_whole_range_kernels_bitwise(
        n, layout, precision, scenario, fusion, diagnostics, seed):
    ensemble = paper_ensemble(n, layout, precision, seed=seed)
    whole = ensemble.copy()
    source, dt = paper_wave(), paper_time_step()
    engine = PushEngine(_queue(), ensemble, scenario, source, dt,
                        fusion=fusion, diagnostics=diagnostics)
    engine.run(STEPS)

    precalc = PrecalculatedField(n, precision, layout)
    energy = np.zeros(n, dtype=precision.dtype)
    t = 0.0
    for _ in range(STEPS):
        sample_fields(precalc, source, whole, t)
        boris_push_precalculated(whole, precalc, dt)
        if diagnostics:
            kinetic_energy_diagnostic(whole, energy)
        t += dt

    assert _bits(ensemble) == _bits(whole)
    assert _field_bits(engine.precalc) == _field_bits(precalc)
    if diagnostics:
        assert engine.diag_energy.tobytes() == energy.tobytes()


def test_push_runs_once_per_block(monkeypatch):
    from repro.oneapi import runtime

    n, sizes = 2 * B + 7, []
    push = runtime.boris_push_precalculated

    def recorded(ensemble, precalc, dt):
        sizes.append(ensemble.size)
        push(ensemble, precalc, dt)
    monkeypatch.setattr(runtime, "boris_push_precalculated", recorded)
    engine = PushEngine(_queue(), paper_ensemble(n), "precalculated",
                        paper_wave(), paper_time_step(), fusion=True)
    engine.step()
    assert sizes == [B, B, 7]


# -- executor ---------------------------------------------------------------

def _recording_node(name, calls, n, ranged=True, untimed=False):
    spec = KernelSpec(name=name, streams=(), flops_per_item=1.0)
    if ranged:
        def body(lo, hi):
            calls.append((name, lo, hi))
    else:
        def body():
            calls.append((name, 0, n))
    return KernelNode(spec=spec, n_items=n, body=body, layout="SoA",
                      precision=Precision.SINGLE, ranged=ranged,
                      untimed=untimed)


class TestBlockedExecutor:
    def test_ranged_group_interleaves_bodies_per_block(self):
        n, calls = B + 3, []
        graph = KernelGraph()
        for name in ("a", "b"):
            graph.add(_recording_node(name, calls, n))
        GraphExecutor(_queue(), graph, fusion=True).run()
        assert calls == [("a", 0, B), ("b", 0, B),
                         ("a", B, n), ("b", B, n)]

    def test_group_with_an_unranged_node_runs_whole_range(self):
        n, calls = B + 3, []
        graph = KernelGraph()
        graph.add(_recording_node("a", calls, n))
        graph.add(_recording_node("b", calls, n, ranged=False))
        GraphExecutor(_queue(), graph, fusion=True).run()
        assert calls == [("a", 0, n), ("b", 0, n)]

    def test_ranged_staging_runs_blocked_before_the_launches(self):
        n, calls = 2 * B, []
        graph = KernelGraph()
        graph.add(_recording_node("stage", calls, n, untimed=True))
        graph.add(_recording_node("push", calls, n))
        GraphExecutor(_queue(), graph, fusion=False).run()
        assert calls == [("stage", 0, B), ("stage", B, n),
                         ("push", 0, B), ("push", B, n)]

    def test_empty_range_runs_no_block(self):
        calls = []
        graph = KernelGraph()
        graph.add(_recording_node("a", calls, 0))
        GraphExecutor(_queue(), graph).run()
        assert calls == []

    @pytest.mark.parametrize("flags", [dict(barrier=True),
                                       dict(elementwise=False)])
    def test_only_elementwise_barrier_free_nodes_are_ranged(self, flags):
        spec = KernelSpec(name="k", streams=(), flops_per_item=1.0)
        with pytest.raises(GraphError, match="ranged"):
            KernelNode(spec=spec, n_items=8, ranged=True, **flags)


# -- zero-copy views ---------------------------------------------------------

def _filled_ensemble(layout, n=10):
    ensemble = make_ensemble(n, layout, Precision.SINGLE)
    for k, name in enumerate(COMPONENTS):
        ensemble.component(name)[:] = np.arange(n) + 100 * k
    ensemble.type_ids[:] = np.arange(n) % 3
    return ensemble


class TestEnsembleView:
    def test_view_shares_memory_and_writes_through(self, layout):
        master = _filled_ensemble(layout)
        view = master.view(3, 7)
        assert view.size == 4 and view.layout is layout
        assert view.type_table is master.type_table
        for name in COMPONENTS:
            assert np.shares_memory(view.component(name),
                                    master.component(name))
            np.testing.assert_array_equal(view.component(name),
                                          master.component(name)[3:7])
        view.component("px")[:] = -1.0
        view.type_ids[:] = 2
        np.testing.assert_array_equal(master.component("px")[3:7], -1.0)
        assert master.component("px")[2] != -1.0
        np.testing.assert_array_equal(master.type_ids[3:7], 2)
        np.testing.assert_array_equal(view.masses(), master.masses()[3:7])

    def test_aos_views_are_strided_soa_views_contiguous(self, layout):
        component = _filled_ensemble(layout).view(2, 8).component("x")
        if layout is Layout.AOS:
            assert component.strides[0] == Precision.SINGLE \
                .particle_bytes_aligned
            assert not component.flags.c_contiguous
        else:
            assert component.flags.c_contiguous

    def test_full_view_is_self(self, layout):
        master = _filled_ensemble(layout)
        assert master.view(0, master.size) is master

    @pytest.mark.parametrize("lo,hi", [(5, 4), (-1, 3), (0, 11)])
    def test_bad_bounds_raise(self, layout, lo, hi):
        with pytest.raises(LayoutError):
            _filled_ensemble(layout).view(lo, hi)

    def test_copy_of_view_is_independent(self, layout):
        master = _filled_ensemble(layout)
        shard = master.view(4, 9).copy()
        shard.component("x")[:] = -5.0
        np.testing.assert_array_equal(master.component("x")[4:9],
                                      np.arange(4, 9))


class TestPrecalculatedView:
    def test_view_shares_memory_and_writes_through(self, layout):
        master = PrecalculatedField(10, Precision.DOUBLE, layout)
        view = master.view(2, 5)
        assert view.size == 3 and view.layout is layout
        for name in FIELD_COMPONENTS:
            assert np.shares_memory(view.component(name),
                                    master.component(name))
        view.component("bz")[:] = 7.0
        np.testing.assert_array_equal(master.component("bz"),
                                      [0, 0, 7, 7, 7, 0, 0, 0, 0, 0])
        strided = view.component("ex").strides[0] == 6 * 8
        assert strided is (layout is Layout.AOS)

    def test_full_view_is_self(self, layout):
        master = PrecalculatedField(4, Precision.SINGLE, layout)
        assert master.view(0, 4) is master

    @pytest.mark.parametrize("lo,hi", [(3, 2), (-1, 2), (0, 5)])
    def test_bad_bounds_raise(self, layout, lo, hi):
        with pytest.raises(LayoutError):
            PrecalculatedField(4, Precision.SINGLE, layout).view(lo, hi)
