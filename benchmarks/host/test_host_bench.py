"""Tests of the host-clock benchmark, at tiny sizes.

Run from the repository root: ``python -m pytest benchmarks/host -q``.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.api import RunConfig, run_pic, run_push  # noqa: E402
from repro.pic.engine import pic_state_digest  # noqa: E402

#: Constructor overrides that make each workload's call take well under
#: a second.  The service keeps enough steps for its device loss.
TINY = {
    "push-cpu-numa": dict(n_particles=2000),
    "push-gpu-large": dict(n_particles=2000),
    "pic-laser-slab": dict(n_particles=256),
    "service-ckpt": dict(n_jobs=4, particles=(500, 1000), steps=(4, 6)),
}


def tiny(name: str, seed: int = 0):
    workload = workloads.make_workload(name, **TINY[name])
    workload.prepare(seed)
    return workload


def traced_call(workload):
    """One traced call; the recorder and the checked outcome."""
    inputs = workload.inputs()
    with layers.LayerRecorder(f"{workload.name}#0") as recorder, \
            recorder.request_span():
        raw = workload.call(inputs)
    return recorder, workload.check(inputs, raw)


def _bindings():
    """Every hooked class attribute and every repro module attribute."""
    seen = {}
    for hook in layers.HOOKS:
        module = importlib.import_module(hook.module)
        if "." in hook.target:
            cls_name, attr = hook.target.split(".")
            seen[hook.target] = vars(getattr(module, cls_name))[attr]
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(module).items():
                seen[f"{name}:{attr}"] = value
    return seen


def test_wrappers_restore_the_originals():
    before = _bindings()
    deposit = sys.modules["repro.pic.engine"].deposit_current_esirkepov
    with pytest.raises(RuntimeError):
        with layers.LayerRecorder("test#0"):
            engine = sys.modules["repro.pic.engine"]
            assert engine.deposit_current_esirkepov is not deposit
            costmodel = sys.modules["repro.oneapi.costmodel"]
            assert vars(costmodel.CostModel)["time_launch"] \
                is not before["CostModel.time_launch"]
            raise RuntimeError("leave the recorder by an exception")
    after = _bindings()
    changed = [key for key, value in before.items()
               if after.get(key) is not value]
    assert changed == []


def test_self_times_partition_the_traced_call():
    recorder, outcome = traced_call(tiny("push-cpu-numa"))
    assert outcome.failed == 0
    layers.add_self_times(recorder.tracer)
    spans = recorder.tracer.spans
    (root,) = [s for s in spans if s.category == layers.ROOT]
    assert len(spans) > 1
    for span in spans:
        assert span.args["request"] == "push-cpu-numa#0"
        assert -1e-9 <= span.args["self_s"] <= span.duration + 1e-9
    total_self = sum(span.args["self_s"] for span in spans)
    assert total_self <= root.duration + 1e-9
    assert total_self == pytest.approx(root.duration, rel=1e-6)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_fires_its_dominant_layer(name):
    workload = tiny(name)
    recorder, outcome = traced_call(workload)
    assert outcome.failed == 0, outcome.problems
    metrics = layers.layer_metrics(recorder.tracer)
    if name.startswith("push"):
        steps = workloads.PUSH_STEPS
        assert metrics["boris.calls"] == metrics["fields.calls"] == steps
        assert metrics["boris.particles"] == 2000 * steps
        visits_per_launch = metrics["costmodel.chunk_stream_visits"] / steps
        # The two-domain CPU walks every chunk of every stream; the GPU
        # prices each stream once, over the whole range.
        if name == "push-cpu-numa":
            assert visits_per_launch > 1000
        else:
            assert visits_per_launch < 20
    elif name == "pic-laser-slab":
        assert metrics["deposition.calls"] == 10
        assert metrics["deposition.particles"] == 256 * 10
    else:
        assert metrics["service.jobs_completed"] == 4
        assert metrics["service.restores"] == 1
        assert metrics["checkpoint.saves"] > 0
        assert metrics["checkpoint.bytes_written"] > 0


def test_an_unlisted_count_is_refused():
    recorder, _ = traced_call(tiny("push-gpu-large"))
    boris = next(s for s in recorder.tracer.spans if s.category == "boris")
    boris.args["particles_squared"] = 1
    with pytest.raises(KeyError, match="particles_squared"):
        layers.layer_metrics(recorder.tracer)


def test_a_perturbed_reference_fails_the_gate():
    workload = tiny("push-gpu-large")
    probe = run.Run(workload)
    probe.call("first")
    reference = {"digest": probe.first.digest,
                 "sim_seconds": probe.first.sim_seconds}
    good = run.Run(workload, reference=reference)
    good.call("call")
    assert (good.attempted, good.failed, good.problems) == (1, 0, [])
    for key, wrong in (("digest", "0" * 64), ("sim_seconds", 1.0)):
        bad = run.Run(workload, reference=dict(reference, **{key: wrong}))
        bad.call("call")
        assert bad.failed == 1 and bad.problems


def test_traced_run_reports_every_per_layer_metric():
    document = run.measure("pic-laser-slab", seed=1, seconds=0.0,
                           trace=True, **TINY["pic-laser-slab"])
    assert document["correct"], document["problems"]
    assert list(document["metrics"]) == \
        list(layers.per_layer_metric_units())
    assert document["attempted"] == 3


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"^[A-Za-z0-9_.-]+$")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == layers.per_layer_metric_units()
    assert all(name.match(key) for key in [*end_to_end, *per_layer])
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def test_engine_push_path_equals_run_push_at_seed_zero():
    workload = tiny("push-cpu-numa")
    _, digest, sim_seconds = workload.call(workload.inputs())
    report = run_push(RunConfig(n_particles=2000, warmup=2,
                                steps=workloads.PUSH_STEPS - 2,
                                device="cpu", fusion=True))
    assert (digest, sim_seconds) == (report.digest,
                                     report.simulated_seconds)


def test_pic_set_up_builds_the_engine_run_pic_steps():
    workload = tiny("pic-laser-slab", seed=1)
    config = workload.inputs()
    engine = workload.build(config)
    for _ in range(config.warmup + config.steps):
        engine.step()
    report = run_pic(config)
    assert (pic_state_digest(engine.simulation),
            engine.queue.timeline.makespan) == (report.digest,
                                                report.simulated_seconds)


def test_the_seed_alone_fixes_the_inputs():
    jobs = [tiny("service-ckpt", seed).jobs for seed in (3, 3, 4)]
    assert jobs[0] == jobs[1] != jobs[2]
    ensembles = [tiny("push-gpu-large", seed).inputs() for seed in (3, 3)]
    assert ensembles[0].component("x").tobytes() \
        == ensembles[1].component("x").tobytes()


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "host",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "benchmarks/host/run.py", "--workload",
         "push-cpu-numa", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "correct" not in result.stdout
