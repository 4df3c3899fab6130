"""Tests for the backend layer: registry, CUDA semantics, isolation.

Covers the contract of :mod:`repro.backends` — spec parsing and typed
errors, the simulated CUDA backend's stream/graph/occupancy semantics,
cross-backend program-cache isolation, and the differential harness's
cross-backend bit-exactness claim.
"""

from types import SimpleNamespace

import pytest

from repro.backends import (BACKEND_NAMES, all_device_specs,
                            canonical_device_spec, descriptor_for,
                            get_backend, parse_device_spec, queue_for,
                            resolve_device)
from repro.backends.cuda import (CONTEXT_INIT_SECONDS, CUDA_BLOCK_SIZE,
                                 GRAPH_CAPTURE_LAUNCHES,
                                 GRAPH_REPLAY_DISCOUNT, WARP_SIZE,
                                 CudaCostModel, CudaStream)
from repro.bench.scenarios import paper_ensemble, paper_time_step, paper_wave
from repro.errors import ConfigurationError, ReproError
from repro.fp import Precision
from repro.particles.ensemble import Layout

N = 256


# -- registry and spec parsing ---------------------------------------------

class TestRegistry:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("oneapi", "cuda")

    def test_bare_key_defaults_to_oneapi(self):
        assert parse_device_spec("cpu") == ("oneapi", "cpu")
        assert parse_device_spec("Iris-Xe-Max") == ("oneapi",
                                                    "iris-xe-max")

    def test_qualified_spec_parses(self):
        assert parse_device_spec("cuda:gpu0") == ("cuda", "gpu0")
        assert parse_device_spec("oneapi:cpu") == ("oneapi", "cpu")

    def test_unknown_backend_is_typed_error(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            parse_device_spec("rocm:gfx90a")
        with pytest.raises(ReproError):
            parse_device_spec("rocm:gfx90a")

    def test_backend_without_device_is_error(self):
        with pytest.raises(ConfigurationError, match="no device"):
            parse_device_spec("cuda:")

    def test_empty_spec_is_error(self):
        with pytest.raises(ConfigurationError):
            parse_device_spec("  ")

    def test_unknown_device_key_is_typed_error(self):
        with pytest.raises(ConfigurationError, match="unknown cuda"):
            resolve_device("cuda:gpu9")

    def test_get_backend_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("metal")

    def test_canonical_spelling(self):
        assert canonical_device_spec("oneapi", "cpu") == "cpu"
        assert canonical_device_spec("cuda", "gpu0") == "cuda:gpu0"

    def test_all_device_specs_spans_backends(self):
        specs = all_device_specs()
        assert "cpu" in specs and "iris-xe-max" in specs
        assert "cuda:gpu0" in specs and "cuda:gpu1" in specs
        assert specs == all_device_specs()  # stable ordering

    def test_all_device_specs_filters(self):
        assert all(s.startswith("cuda:")
                   for s in all_device_specs(backend="cuda"))
        with pytest.raises(ConfigurationError):
            all_device_specs(backend="rocm")

    def test_descriptors_carry_backend_field(self):
        assert descriptor_for("cpu").backend == "oneapi"
        assert descriptor_for("cuda:gpu0").backend == "cuda"


# -- CUDA stream semantics -------------------------------------------------

class TestCudaStream:
    def test_queue_for_builds_a_stream(self):
        queue = queue_for("cuda:gpu0")
        assert isinstance(queue, CudaStream)
        assert queue.config.in_order is True

    def test_out_of_order_request_is_demoted(self):
        queue = queue_for("cuda:gpu1", out_of_order=True)
        assert queue.config.in_order is True

    def test_default_scheduler_uses_block_size(self):
        queue = queue_for("cuda:gpu0")
        assert queue.config.scheduler.workgroup_size == CUDA_BLOCK_SIZE

    def test_oneapi_queue_keeps_out_of_order(self):
        queue = queue_for("iris-xe-max", out_of_order=True)
        assert queue.config.in_order is False


# -- CUDA cost model -------------------------------------------------------

class TestCudaCostModel:
    def _model(self):
        return CudaCostModel(descriptor_for("cuda:gpu0"))

    def test_occupancy_is_warp_quantised(self):
        model = self._model()
        assert model._occupancy_items(1.0) == WARP_SIZE
        assert model._occupancy_items(32.0) == 32.0
        assert model._occupancy_items(33.0) == 64.0
        assert model._occupancy_items(0.0) == 0.0

    def test_steady_overhead_is_graph_replay(self):
        model = self._model()
        assert model._steady_launch_overhead() == pytest.approx(
            model.device.kernel_launch_overhead * GRAPH_REPLAY_DISCOUNT)

    def test_capture_then_replay(self):
        model = self._model()
        spec = SimpleNamespace(name="boris")
        full = model.device.kernel_launch_overhead
        first = model._measured_launch_overhead(spec)
        # the very first launch also pays context initialisation
        assert first == pytest.approx(full + CONTEXT_INIT_SECONDS)
        for _ in range(GRAPH_CAPTURE_LAUNCHES - 1):
            assert model._measured_launch_overhead(spec) \
                == pytest.approx(full)
        assert model._measured_launch_overhead(spec) == pytest.approx(
            full * GRAPH_REPLAY_DISCOUNT)

    def test_context_init_charged_once_across_kernels(self):
        model = self._model()
        full = model.device.kernel_launch_overhead
        model._measured_launch_overhead(SimpleNamespace(name="a"))
        assert model._measured_launch_overhead(
            SimpleNamespace(name="b")) == pytest.approx(full)

    def test_fresh_stream_gets_fresh_context(self):
        a = queue_for("cuda:gpu0")
        b = queue_for("cuda:gpu0")
        assert a.cost_model is not b.cost_model


# -- cross-backend program-cache isolation (satellite) ---------------------

class TestProgramCacheIsolation:
    def test_same_chain_distinct_keys_per_backend(self):
        from repro.oneapi.programcache import ProgramCache, ProgramKey
        oneapi_key = ProgramKey(chain=("boris",), device="modelX",
                                layout="SoA", precision="float",
                                backend="oneapi")
        cuda_key = ProgramKey(chain=("boris",), device="modelX",
                              layout="SoA", precision="float",
                              backend="cuda")
        assert oneapi_key != cuda_key
        cache = ProgramCache()
        cache.build(oneapi_key, 0.2)
        assert cache.is_warm(oneapi_key)
        assert not cache.is_warm(cuda_key)

    def test_profile_warmth_is_pinned_per_backend(self):
        from repro.oneapi.programcache import ProgramCache, ProgramKey
        cache = ProgramCache()
        cache.build(ProgramKey(chain=("boris",), device="modelX",
                               layout="SoA", precision="float",
                               backend="cuda"), 0.5)
        assert cache.is_profile_warm("modelX", "SoA", "float")
        assert cache.is_profile_warm("modelX", "SoA", "float",
                                     backend="cuda")
        assert not cache.is_profile_warm("modelX", "SoA", "float",
                                         backend="oneapi")

    def test_shared_cache_runs_keep_backends_apart(self):
        from repro.api import RunConfig, run_push
        from repro.oneapi.programcache import ProgramCache
        cache = ProgramCache()
        for spec in ("iris-xe-max", "cuda:gpu0"):
            run_push(RunConfig(device=spec, n_particles=N, steps=2,
                               warmup=1, program_cache=cache))
        from repro.backends.registry import descriptor_for
        for spec, backend in (("iris-xe-max", "oneapi"),
                              ("cuda:gpu0", "cuda")):
            assert cache.is_profile_warm(descriptor_for(spec).jit_key,
                                         "SoA", "float", backend=backend)
        # both backends paid their own JIT: two misses, zero sharing
        assert cache.stats.misses == 2


# -- engines and the facade across backends --------------------------------

class TestCrossBackendExecution:
    def test_run_push_executes_cuda_device(self):
        from repro.api import RunConfig, run_push
        report = run_push(RunConfig(device="cuda:gpu0", n_particles=N,
                                    steps=2, warmup=1))
        assert report.device == "cuda:gpu0"
        assert report.nsps > 0.0

    def test_cuda_digest_matches_oneapi(self):
        from repro.api import RunConfig, run_push
        digests = {run_push(RunConfig(device=spec, n_particles=N,
                                      steps=2, warmup=1)).digest
                   for spec in ("iris-xe-max", "cuda:gpu0", "cpu")}
        assert len(digests) == 1

    def test_auto_selects_and_executes_cuda(self):
        from repro.api import RunConfig, run_push
        report = run_push(RunConfig(config="auto", device="cuda:gpu0",
                                    n_particles=2_000, steps=3,
                                    warmup=1))
        assert report.device == "cuda:gpu0"
        assert report.predicted_nsps is not None
        assert report.tuning is not None

    def test_auto_device_axis_spans_backends(self):
        from repro.api import RunConfig, run_push
        specs = ("cpu", "cuda:gpu0", "iris-xe-max")
        report = run_push(RunConfig(config="auto", tune_devices=specs,
                                    n_particles=2_000, steps=3,
                                    warmup=1))
        assert report.device in specs
        labels = [p.candidate.label for p in report.tuning.ranked]
        assert any("cuda:gpu0" in label for label in labels)

    def test_tune_devices_requires_auto(self):
        from repro.api import RunConfig
        with pytest.raises(ConfigurationError):
            RunConfig(tune_devices=("cpu", "cuda:gpu0")).validate()

    def test_tune_devices_validates_specs(self):
        from repro.api import RunConfig
        with pytest.raises(ConfigurationError, match="unknown backend"):
            RunConfig(config="auto",
                      tune_devices=("rocm:gfx90a",)).validate()

    def test_resilient_ladder_spans_backends(self):
        from repro.resilience import ResilientPushEngine
        ensemble = paper_ensemble(N, Layout.SOA, Precision.SINGLE)
        engine = ResilientPushEngine(ensemble, "precalculated",
                                     paper_wave(), paper_time_step(),
                                     devices=("cuda:gpu0", "cpu"))
        records, report = engine.run(2)
        assert report.completed
        assert report.final_device == "cuda:gpu0"

    def test_group_spec_accepts_qualified_keys(self):
        from repro.distributed import DeviceGroup
        from repro.distributed.group import parse_group_spec
        keys = parse_group_spec("2x cuda:gpu0, cpu")
        assert keys == ["cuda:gpu0", "cuda:gpu0", "cpu"]
        group = DeviceGroup.from_spec("cuda:gpu0, cpu")
        assert group.members[0].host_link.name == "PCIe 3.0 x16"
        assert group.members[0].queue.config.in_order is True
        assert group.members[1].queue.config.in_order is False

    def test_differential_passes_with_cuda_in_matrix(self):
        from repro.validation import run_differential
        report = run_differential(
            n=64, steps=2, engines=("single",),
            layouts=(Layout.SOA,), precisions=(Precision.SINGLE,),
            fusion_modes=(None, True),
            devices=("iris-xe-max", "cuda:gpu0", "cuda:gpu1"))
        assert report.all_passed
        labels = {result.engine for result in report.results}
        assert "single[cuda:gpu0]" in labels


# -- CLI (satellite) -------------------------------------------------------

class TestBackendCli:
    def test_devices_lists_backend_column(self, capsys):
        from repro.cli import main
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "backend" in out
        assert "cuda:gpu0" in out and "iris-xe-max" in out

    def test_devices_backend_filter(self, capsys):
        from repro.cli import main
        assert main(["devices", "--backend", "cuda"]) == 0
        out = capsys.readouterr().out
        assert "cuda:gpu1" in out
        assert "iris-xe-max" not in out

    def test_unknown_backend_exits_2(self, capsys):
        from repro.cli import main
        assert main(["devices", "--backend", "rocm"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_unknown_device_spec_exits_2(self, capsys):
        from repro.cli import main
        code = main(["push", "--device", "rocm:gfx90a",
                     "--particles", "64", "--steps", "1"])
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_push_runs_on_cuda_spec(self, capsys):
        from repro.cli import main
        code = main(["push", "--device", "cuda:gpu1",
                     "--particles", "256", "--steps", "2",
                     "--warmup", "1"])
        assert code == 0
        assert "cuda:gpu1" in capsys.readouterr().out
