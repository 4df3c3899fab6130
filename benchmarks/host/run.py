#!/usr/bin/env python3
"""Host-clock benchmark of the simulator, end to end and per layer.

Run from the repository root::

    python3 benchmarks/host/run.py --workload push-cpu-numa --seed 0 \\
        --seconds 15 --trace 0
    python3 benchmarks/host/run.py --workload pic-laser-slab --trace 1 \\
        --trace-out pic-trace.json
    python3 benchmarks/host/run.py --seed 0 --out results.json   # all four

One run of a workload, in one interpreter with one numpy thread, is a
closed loop with one client:

1. one full-size warm-up call, discarded;
2. timed calls with tracing off until ``--seconds`` have passed, each
   preceded by a fixed host-speed probe (``host.probe_s``);
3. with ``--trace 1``, one more call with every layer wrapped
   (see ``layers.py``), giving the per-layer metrics;
4. with ``--trace 0``, five fresh interpreters that each set the
   workload up and report ready (``setup_s``), each after a probe.

Both timed metrics are scaled to the reference host speed by the probe
(see README.md, "Why the times are scaled"); the raw samples are kept.

Every call's output is checked outside the timed region (see
``workloads.py``); at seed 0 its digest and simulated seconds must also
equal ``reference.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics — the
end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  The exit code is 0 only when every check passed.

Without ``--workload`` (or with ``--workload all``) the four workloads
run one after another, each in its own child interpreter, and the
metric names gain a ``<workload>.`` prefix.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
import zlib
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space of a run (the children's TMPDIR), inside the checkout.
WORK = ROOT / ".hostbench"
REFERENCE = HERE / "reference.json"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
DEFAULT_SECONDS = 15
#: Seconds the host probe takes at the reference host speed; the timed
#: metrics are scaled to it.
PROBE_REFERENCE_S = 0.1
#: Wall-clock cap of one set-up probe interpreter.
PROBE_TIMEOUT = 120

#: Pin every numeric library to one thread: the host has two vCPUs and
#: at most one process may generate load.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {"host_nsps": "ns", "setup_s": "s", "peak_rss_mb": "MiB"}


# -- the host-speed probe -----------------------------------------------------


def _probe_step(total: int, i: int) -> int:
    return total + (i & 7)


def host_probe() -> float:
    """Seconds for a fixed ~0.1 s mix of host work.

    One slice of each kind of work the workloads spend their time in:
    call-heavy interpreter code, many small numpy calls, a large numpy
    elementwise chain, an ``np.add.at`` scatter and zlib compression.
    Taken before every timed call; the timed metrics are scaled by it.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(330_000):
        total = _probe_step(total, i)
    small = np.arange(64) % 5
    for _ in range(3_000):
        np.unique(small, return_counts=True)
    values = np.linspace(0.0, 1.0, 1_000_000)
    for _ in range(15):
        values = values * 1.000001 + 1.0e-9
    bins = np.zeros(4096)
    index = (np.arange(300_000) * 2654435761) % 4096
    for _ in range(24):
        np.add.at(bins, index, values[:300_000])
    zlib.compress(values[:40_000].tobytes())
    return time.perf_counter() - start


# -- one workload, in this interpreter ----------------------------------------


class Run:
    """The measurement protocol of one workload (see module docstring)."""

    def __init__(self, workload,
                 reference: Optional[Dict[str, object]] = None) -> None:
        self.workload = workload
        self.reference = reference
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.first = None
        self.call_s: List[float] = []
        self.probe_s: List[float] = []
        #: ``ru_maxrss`` [KiB] right after the first call returned:
        #: imports, inputs and one full call, before any check or probe.
        self.rss_kib: Optional[int] = None

    def _record(self, label: str, outcome) -> None:
        """Fold one checked outcome into the run's failure counts."""
        self.attempted += outcome.operations
        problems = [f"{label}: {p}" for p in outcome.problems]
        failed = outcome.failed
        if self.first is None:
            self.first = outcome
        mismatch = []
        if outcome.digest != self.first.digest:
            mismatch.append("digest")
        if outcome.sim_seconds != self.first.sim_seconds:
            mismatch.append("sim_seconds")
        if self.reference is not None:
            if outcome.digest != self.reference["digest"]:
                mismatch.append("seed-0 reference digest")
            if outcome.sim_seconds != self.reference["sim_seconds"]:
                mismatch.append("seed-0 reference sim_seconds")
        if mismatch:
            problems.append(f"{label}: {', '.join(mismatch)} differ")
            failed = outcome.operations
        self.failed += failed
        self.problems += problems

    def call(self, label: str, context=None):
        """One checked call; returns its wall seconds (None on error).

        The call runs inside ``context`` when given (the traced pass);
        the checks run outside it.
        """
        workload = self.workload
        self.calls += 1
        inputs = workload.inputs()
        gc.collect()
        try:
            start = time.perf_counter()
            with context or contextlib.nullcontext():
                raw = workload.call(inputs)
            wall = time.perf_counter() - start
            if self.rss_kib is None:
                self.rss_kib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss
            outcome = workload.check(inputs, raw)
        except Exception:  # a failed call is a failed operation
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label}: raised")
            return None
        self._record(label, outcome)
        return wall

    def timed(self, seconds: float) -> None:
        """Warm up once, then time calls until ``seconds`` have passed."""
        self.call("warm-up")
        start = time.perf_counter()
        while True:
            probe = host_probe()
            wall = self.call(f"call {self.calls}")
            if wall is not None:
                self.probe_s.append(probe)
                self.call_s.append(wall)
            if time.perf_counter() - start >= seconds:
                break

    def traced(self, trace_out: Optional[str] = None) -> Dict[str, float]:
        """One call with every layer wrapped; the per-layer metrics."""
        from layers import LayerRecorder, layer_metrics
        from repro.observability import write_chrome_trace

        recorder = LayerRecorder(f"{self.workload.name}#{self.calls}")
        wall = self.call(f"traced call {self.calls}",
                         context=_traced(recorder))
        if wall is None or not recorder.tracer.spans:
            return {}
        metrics = layer_metrics(recorder.tracer)
        metrics["trace.overhead_ratio"] = \
            metrics["trace.wall_s"] / median(self.call_s)
        metrics["host.probe_s"] = median(self.probe_s)
        if trace_out:
            write_chrome_trace(recorder.tracer, trace_out)
        return metrics


@contextlib.contextmanager
def _traced(recorder):
    """Hooks installed and the root span open for one call."""
    with recorder, recorder.request_span():
        yield


def _probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload being
    set up and ready to step.

    The child prints its ``time.monotonic()`` when ready; on Linux that
    clock is system-wide, so it compares with the parent's start.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", name, "--seed", str(seed)]
    start = time.monotonic()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or not out.startswith("ready "):
        raise RuntimeError(f"set-up probe of {name} failed "
                           f"(exit {proc.returncode})")
    return float(out.split()[1]) - start


def measure(name: str, seed: int, seconds: float, trace: bool,
            trace_out: Optional[str] = None, **overrides) -> dict:
    """Run one workload in this interpreter; the full result document.

    ``overrides`` go to :func:`workloads.make_workload` (tests pass tiny
    sizes; the seed-0 reference applies only to the default sizes).
    """
    import numpy
    from layers import per_layer_metric_units
    from workloads import make_workload

    workload = make_workload(name, **overrides)
    reference = None
    if seed == 0 and not overrides:
        reference = json.loads(REFERENCE.read_text())["workloads"][name]
    workload.prepare(seed)
    run = Run(workload, reference)
    run.timed(seconds)
    samples: Dict[str, List[float]] = {"call_s": run.call_s,
                                       "probe_s": run.probe_s}
    units = per_layer_metric_units() if trace else END_TO_END
    values: Dict[str, float] = {}
    wall_nsps = None
    if run.call_s:
        wall_nsps = median(run.call_s) * 1.0e9 / run.first.particle_steps
    if trace and wall_nsps is not None:
        values = run.traced(trace_out)
    elif wall_nsps is not None:
        setup_s, setup_probe_s = [], []
        try:
            for _ in range(SETUP_PROBES):
                setup_probe_s.append(host_probe())
                setup_s.append(_probe_setup(name, seed))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            run.problems.append(str(exc))
        samples.update(setup_s=setup_s, setup_probe_s=setup_probe_s)
        values = {
            "host_nsps": _scaled(run.call_s, run.probe_s) * 1.0e9
            / run.first.particle_steps,
            "peak_rss_mb": run.rss_kib / 1024.0,
        }
        if len(setup_s) == SETUP_PROBES:
            values["setup_s"] = _scaled(setup_s, setup_probe_s)
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in units.items() if key in values}
    if len(metrics) != len(units):
        run.problems.append("some metrics could not be measured")
    first = run.first
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(run.attempted, 1), "failed": run.failed,
        "metrics": metrics, "samples": samples, "wall_nsps": wall_nsps,
        "digest": first.digest if first else None,
        "sim_seconds": first.sim_seconds if first else None,
        "particle_steps": first.particle_steps if first else None,
        "problems": run.problems,
        "host": {"python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
    }


def _scaled(times: List[float], probes: List[float]) -> float:
    """Median of each time scaled to the reference host speed by the
    probe taken just before it."""
    return median(t * PROBE_REFERENCE_S / p for t, p in zip(times, probes))


# -- output -------------------------------------------------------------------


def _summary_line(document: dict) -> str:
    return json.dumps({key: document[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def _print_report(document: dict) -> None:
    samples = document["samples"]
    print(f"== {document['workload']} (seed {document['seed']}, "
          f"{len(samples['call_s'])} timed calls after one warm-up)")
    for key, metric in document["metrics"].items():
        print(f"  {key:36s} {metric['value']:>16.6g} {metric['unit']}")
    for key, values in samples.items():
        shown = ", ".join(f"{v:.4f}" for v in values)
        print(f"  samples {key} (n={len(values)}): [{shown}]")
    if document["wall_nsps"] is not None:
        print(f"  wall ns per particle-step (not scaled to the reference "
              f"host speed): {document['wall_nsps']:.6g}")
    if document["sim_seconds"] is not None:
        print(f"  simulated seconds {document['sim_seconds']!r}, "
              f"digest {document['digest'][:16]}")
    print(f"  operations: {document['attempted']} attempted, "
          f"{document['failed']} failed")
    for problem in document["problems"]:
        print(f"  PROBLEM: {problem}")


def _run_all(args, scratch: Path) -> int:
    """Every workload in its own child interpreter, one after another."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {},
              "workloads": {}}
    for name in WORKLOADS:
        detail = scratch / f"{name}.json"
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--out", str(detail)]
        if args.trace_out:
            stem = Path(args.trace_out)
            command += ["--trace-out",
                        str(stem.with_name(f"{stem.stem}.{name}"
                                           f"{stem.suffix or '.json'}"))]
        subprocess.run(command, cwd=ROOT, check=False)
        try:
            document = json.loads(detail.read_text())
        except (OSError, ValueError):
            merged["correct"] = False
            merged["failed"] += 1
            merged["attempted"] += 1
            continue
        merged["workloads"][name] = document
        merged["correct"] &= document["correct"]
        merged["attempted"] += document["attempted"]
        merged["failed"] += document["failed"]
        for key, metric in document["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    if args.out:
        Path(args.out).write_text(json.dumps(merged, indent=1) + "\n")
    print(_summary_line(merged))
    return 0 if merged["correct"] else 1


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Host-clock benchmark: end-to-end and per-layer "
                    "wall time of the simulator's four workloads.")
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed calls run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced call and report the "
                             "per-layer metrics")
    parser.add_argument("--out", help="write the full result document "
                                      "(samples, checks, host) here")
    parser.add_argument("--trace-out",
                        help="write the traced call's Chrome trace here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    # Before numpy loads: the thread pins only apply at import.
    os.environ.update(THREAD_ENV)
    # Everything the run and its children write stays in the checkout.
    scratch = WORK / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        return _dispatch(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _dispatch(args, scratch: Path) -> int:
    from workloads import WORKLOADS, make_workload

    if args.setup_probe:
        workload = make_workload(args.workload)
        workload.prepare(args.seed)
        workload.build(workload.inputs())
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0
    if args.workload == "all":
        return _run_all(args, scratch)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of {WORKLOADS}", file=sys.stderr)
        return 2
    document = measure(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.trace_out)
    _print_report(document)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(_summary_line(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
