"""The declared regression suites: every committed baseline as a test.

One :class:`~repro.regress.base.RegressionTest` subclass per suite:

========== ============================ ======== ==================
suite      artefact                     baseline tags
========== ============================ ======== ==================
table2     paper Table 2 (24 CPU cells) yes      paper, table, full
table3     paper Table 3 (12 GPU cells) yes      paper, table, full
fig1       paper Fig. 1 scaling series  no       paper, sanity
first-iter in-text first-iteration cost no       paper, sanity
threads    in-text hyperthreading       no       paper, sanity
measure    real numpy kernels (host)    no       manual, real
shard      multi-device group NSPS      yes      smoke, distributed
fusion     fused-vs-unfused pair        yes      smoke, graph
portability Pennycook PP sweep          yes      smoke, backends
pic        full PIC step (kernel graph) yes      smoke, pic, graph
========== ============================ ======== ==================

Baseline-backed suites replay the *committed configuration* (particle
count and parameters come from the latest snapshot of their
``BENCH_<suite>.json``), so ``repro bench --regress`` compares like
with like.  Sanity-only suites re-judge the paper's qualitative bands
(:mod:`repro.bench.validation`) without a committed reference; the
``measure`` suite is listed but never regressed — its numbers belong
to the host, not to the repo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .base import RegressionTest, SanityCheck
from .baseline import load_baseline

__all__ = ["SuiteArtifact", "SUITES", "get_suite", "all_suites",
           "Table2Suite", "Table3Suite", "Fig1Suite", "FirstIterSuite",
           "ThreadsSuite", "MeasureSuite", "ShardSuite", "FusionSuite",
           "PortabilitySuite", "PicSuite"]

#: Paper-scale default particle count (the tables' recorded baseline n).
PAPER_N = 10_000_000

#: Particle count of the sanity-only paper suites under ``--regress``:
#: large enough to stay out of the caches (the memory-bound regime the
#: paper measures), small enough for the smoke budget.
SANITY_N = 4_000_000


@dataclass
class SuiteArtifact:
    """What one suite run produced: the harness artefact + provenance."""

    data: object
    n_particles: int
    params: Dict[str, object]


def _checks_to_sanity(checks) -> List[SanityCheck]:
    """Adapt :class:`repro.bench.validation.Check` lists."""
    return [SanityCheck(c.claim, c.detail, c.passed) for c in checks]


class _BaselineParamsMixin:
    """Replaying the committed configuration: n and params come from
    the latest snapshot when one exists."""

    def __init__(self, directory=None):
        self.directory = directory

    def _latest(self):
        baseline = load_baseline(self.suite, self.directory)
        return baseline.latest if baseline is not None else None

    def baseline_n(self, fallback: int) -> int:
        snapshot = self._latest()
        if snapshot is not None and snapshot.n_particles > 0:
            return snapshot.n_particles
        return fallback

    def baseline_param(self, name: str, fallback):
        snapshot = self._latest()
        if snapshot is not None and name in snapshot.params:
            return snapshot.params[name]
        return fallback


class Table2Suite(_BaselineParamsMixin, RegressionTest):
    suite = "table2"
    descr = "paper Table 2: CPU NSPS, 6 implementations x 4 columns"
    tags = frozenset({"paper", "table", "full"})
    devices = ("cpu",)
    backends = ("oneapi",)
    parameters = {"layout": ("AoS", "SoA"),
                  "config": ("OpenMP", "DPC++", "DPC++ NUMA"),
                  "precision": ("float", "double"),
                  "scenario": ("precalculated", "analytical")}

    def run(self, n: Optional[int] = None) -> SuiteArtifact:
        from ..bench.harness import table2_rows
        n = n if n is not None else self.baseline_n(PAPER_N)
        return SuiteArtifact(table2_rows(n=n), n, {})

    def cells(self, artifact: SuiteArtifact) -> List[Dict[str, object]]:
        cells = []
        for (layout, parallelization), row in artifact.data.items():
            for (scenario, precision), nsps in row.items():
                cells.append(self.make_cell(
                    parallelization, "cpu", {"nsps": float(nsps)},
                    layout=layout, precision=precision,
                    scenario=scenario))
        return cells

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        from ..bench.validation import check_table2_claims
        return super().sanity(artifact, cells) \
            + _checks_to_sanity(check_table2_claims(artifact.data))

    def render(self, artifact: SuiteArtifact) -> str:
        from ..bench.tables import PAPER_TABLE2, comparison_table
        return comparison_table(artifact.data, PAPER_TABLE2,
                                "layout/impl",
                                "Table 2 — CPU NSPS, 6 implementations")


class Table3Suite(_BaselineParamsMixin, RegressionTest):
    suite = "table3"
    descr = "paper Table 3: GPU NSPS (single precision) vs 2-CPU node"
    tags = frozenset({"paper", "table", "full"})
    devices = ("cpu", "p630", "iris-xe-max")
    backends = ("oneapi",)
    parameters = {"layout": ("AoS", "SoA"),
                  "device": ("cpu", "p630", "iris-xe-max"),
                  "scenario": ("precalculated", "analytical")}

    def run(self, n: Optional[int] = None) -> SuiteArtifact:
        from ..bench.harness import table3_rows
        n = n if n is not None else self.baseline_n(PAPER_N)
        return SuiteArtifact(table3_rows(n=n), n, {})

    def cells(self, artifact: SuiteArtifact) -> List[Dict[str, object]]:
        cells = []
        for layout, row in artifact.data.items():
            for (scenario, device), nsps in row.items():
                cells.append(self.make_cell(
                    "DPC++", device, {"nsps": float(nsps)},
                    layout=layout, precision="float", scenario=scenario))
        return cells

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        from ..bench.validation import check_table3_claims
        return super().sanity(artifact, cells) \
            + _checks_to_sanity(check_table3_claims(artifact.data))

    def render(self, artifact: SuiteArtifact) -> str:
        from ..bench.tables import PAPER_TABLE3, comparison_table
        return comparison_table(artifact.data, PAPER_TABLE3, "layout",
                                "Table 3 — GPU NSPS (single precision)")


class Fig1Suite(RegressionTest):
    suite = "fig1"
    descr = "paper Fig. 1: strong-scaling speedup, sanity bands only"
    tags = frozenset({"paper", "sanity"})
    devices = ("cpu",)
    backends = ("oneapi",)
    parameters = {"config": ("OpenMP", "DPC++ NUMA"),
                  "layout": ("AoS", "SoA")}
    has_baseline = False

    def __init__(self, directory=None):
        self.directory = directory

    def run(self, n: Optional[int] = None) -> SuiteArtifact:
        from ..bench.harness import fig1_series
        n = n if n is not None else SANITY_N
        return SuiteArtifact(fig1_series(n=n), n, {})

    def cells(self, artifact: SuiteArtifact) -> List[Dict[str, object]]:
        cells = []
        for name, points in artifact.data.items():
            config, layout = name.split("/", 1)
            cores, speedup = points[-1]
            cells.append(self.make_cell(
                config, "cpu", {"speedup": float(speedup),
                                "cores": float(cores)},
                layout=layout, precision="float",
                scenario="precalculated"))
        return cells

    compared_metrics = ()   # sanity-only: no committed reference

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        from ..bench.validation import check_fig1_claims
        return _checks_to_sanity(check_fig1_claims(artifact.data))

    def render(self, artifact: SuiteArtifact) -> str:
        from ..bench.tables import format_table
        series = artifact.data
        headers = ["cores"] + list(series)
        core_counts = [c for c, _ in next(iter(series.values()))]
        rows = []
        for i, cores in enumerate(core_counts):
            rows.append([cores] + [f"{points[i][1]:.1f}"
                                   for points in series.values()])
        lines = [format_table(headers, rows,
                              "Fig. 1 — speedup vs single core "
                              "(precalculated fields, float)")]
        for name, points in series.items():
            speedup = points[-1][1]
            lines.append(
                f"{name}: {speedup:.1f}x at 48 cores "
                f"({100 * speedup / 48:.0f}% efficiency; paper reports "
                f"~63%)")
        return "\n".join(lines)


class FirstIterSuite(RegressionTest):
    suite = "first-iter"
    descr = "in-text claim: first iteration ~50% slower (JIT + cold)"
    tags = frozenset({"paper", "sanity"})
    devices = ("cpu",)
    backends = ("oneapi",)
    has_baseline = False
    compared_metrics = ()

    def __init__(self, directory=None):
        self.directory = directory

    def run(self, n: Optional[int] = None) -> SuiteArtifact:
        from ..bench.harness import first_iteration_ratio
        n = n if n is not None else SANITY_N
        return SuiteArtifact(first_iteration_ratio(n=n), n, {})

    def cells(self, artifact: SuiteArtifact) -> List[Dict[str, object]]:
        return [self.make_cell(config, "cpu",
                               {"first_iteration_ratio": float(ratio)},
                               layout="SoA", precision="float",
                               scenario="precalculated")
                for config, ratio in artifact.data.items()]

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        from ..bench.validation import (
            check_first_iteration_claim, check_openmp_first_iteration_milder)
        return _checks_to_sanity(
            check_first_iteration_claim(artifact.data)
            + check_openmp_first_iteration_milder(artifact.data))

    def render(self, artifact: SuiteArtifact) -> str:
        return "\n".join(f"{config}: first iteration / steady iteration "
                         f"= {ratio:.2f}" for config, ratio
                         in artifact.data.items()) + "\n(paper: ~1.5)"


class ThreadsSuite(RegressionTest):
    suite = "threads"
    descr = "in-text claim: hyperthreading helps (96 threads beat 48)"
    tags = frozenset({"paper", "sanity"})
    devices = ("cpu",)
    backends = ("oneapi",)
    has_baseline = False
    compared_metrics = ()

    def __init__(self, directory=None):
        self.directory = directory

    def run(self, n: Optional[int] = None) -> SuiteArtifact:
        from ..bench.harness import thread_sweep
        n = n if n is not None else SANITY_N
        return SuiteArtifact(thread_sweep(n=n), n, {})

    def cells(self, artifact: SuiteArtifact) -> List[Dict[str, object]]:
        return [self.make_cell("OpenMP", "cpu",
                               {"nsps": float(nsps),
                                "cores": float(cores),
                                "threads": float(cores * per_core)},
                               layout="SoA", precision="float",
                               scenario="precalculated")
                for cores, row in sorted(artifact.data.items())
                for per_core, nsps in sorted(row.items())]

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        from ..bench.validation import check_threads_claim
        return _checks_to_sanity(check_threads_claim(artifact.data))

    def render(self, artifact: SuiteArtifact) -> str:
        from ..bench.tables import format_table
        sweep = artifact.data
        table = format_table(
            ["cores", "1 thread/core", "2 threads/core"],
            [[cores, f"{row[1]:.3f}", f"{row[2]:.3f}"]
             for cores, row in sorted(sweep.items())],
            "Hyperthreading sweep — OpenMP NSPS, precalculated, float")
        best = "96" if sweep[48][2] < sweep[48][1] else "48"
        return (f"{table}\nbest at 48 cores: {best} threads (paper: 96 "
                f"threads is empirically best)")


class MeasureSuite(RegressionTest):
    suite = "measure"
    descr = "real numpy-kernel NSPS on this host (never regressed)"
    tags = frozenset({"manual", "real"})
    devices = ("host",)
    backends = ("host",)
    has_baseline = False
    regressable = False
    compared_metrics = ()

    def __init__(self, directory=None):
        self.directory = directory

    def run(self, n: Optional[int] = None,
            steps: Optional[int] = None) -> SuiteArtifact:
        from ..bench import measure_real_nsps, paper_time_step, paper_wave
        from ..bench.scenarios import paper_ensemble
        from ..fp import Precision
        from ..particles.ensemble import Layout
        n = n if n is not None else 200_000
        steps = steps if steps is not None else 5
        wave, dt = paper_wave(), paper_time_step()
        rows = []
        for layout in (Layout.AOS, Layout.SOA):
            for precision in (Precision.SINGLE, Precision.DOUBLE):
                for scenario in ("precalculated", "analytical"):
                    ensemble = paper_ensemble(n, layout, precision)
                    result = measure_real_nsps(ensemble, scenario, wave,
                                               dt, steps=steps)
                    rows.append((layout.value, precision.value, scenario,
                                 result.nsps))
        return SuiteArtifact(rows, n, {"steps": steps})

    def cells(self, artifact: SuiteArtifact) -> List[Dict[str, object]]:
        return []    # host-dependent: never recorded, never compared

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        return []

    def render(self, artifact: SuiteArtifact) -> str:
        from ..bench.tables import format_table
        return format_table(
            ["layout", "precision", "scenario", "NSPS"],
            [[la, p, s, f"{nsps:.2f}"]
             for la, p, s, nsps in artifact.data],
            f"Measured numpy-kernel NSPS on this host "
            f"({artifact.n_particles} particles)")


class ShardSuite(_BaselineParamsMixin, RegressionTest):
    suite = "shard"
    descr = "multi-device sharded group NSPS (halo exchange priced)"
    tags = frozenset({"smoke", "distributed"})
    devices = ("2x iris-xe-max",)
    backends = ("oneapi",)
    parameters = {"strategy": ("even", "bandwidth", "flops")}

    DEFAULT_SPEC = "2x iris-xe-max"
    DEFAULT_N = 200_000
    DEFAULT_STEPS = 8
    DEFAULT_WARMUP = 2

    def _replay_config(self) -> Tuple[str, str]:
        """(group spec, strategy) of the committed cell, or defaults."""
        snapshot = self._latest()
        if snapshot is not None and snapshot.cells:
            cell = snapshot.cells[0]
            config = cell.keys.get("config", "sharded/even")
            strategy = config.split("/", 1)[1] if "/" in config else "even"
            return cell.keys.get("device", self.DEFAULT_SPEC), strategy
        return self.DEFAULT_SPEC, "even"

    def run(self, n: Optional[int] = None) -> SuiteArtifact:
        from ..api import RunConfig, run_push
        spec, strategy_name = self._replay_config()
        n = n if n is not None else self.baseline_n(self.DEFAULT_N)
        steps = int(self.baseline_param("steps", self.DEFAULT_STEPS))
        warmup = int(self.baseline_param("warmup", self.DEFAULT_WARMUP))
        report = run_push(RunConfig(
            n_particles=n, steps=steps, warmup=warmup, group=spec,
            strategy=strategy_name, layout="SoA", precision="float",
            scenario="precalculated")).group_report
        return SuiteArtifact((report, spec), n,
                             {"steps": steps, "warmup": warmup})

    def cells(self, artifact: SuiteArtifact) -> List[Dict[str, object]]:
        report, spec = artifact.data
        return [self.make_cell(
            f"sharded/{report.strategy}", spec,
            {"nsps": float(report.nsps),
             "n_devices": float(report.n_devices),
             "imbalance": float(report.imbalance),
             "exchange_bytes": float(report.exchange.total_bytes)},
            layout="SoA", precision="float", scenario="precalculated")]

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        report, spec = artifact.data
        checks = super().sanity(artifact, cells)
        particles = sum(s.particles for s in report.shards)
        checks.append(SanityCheck(
            "shard: particles conserved across the split",
            f"{particles} across {report.n_devices} devices",
            particles == artifact.n_particles))
        if report.n_devices > 1:
            checks.append(SanityCheck(
                "shard: halo exchange was priced, not skipped",
                f"{report.exchange.transfers} transfers, "
                f"{report.exchange.total_bytes} bytes",
                report.exchange.transfers > 0
                and report.exchange.total_bytes > 0))
        return checks

    def render(self, artifact: SuiteArtifact) -> str:
        from ..bench.tables import format_table
        report, spec = artifact.data
        rows = [[s.name, s.key, s.particles, s.steps,
                 f"{s.busy_seconds * 1e3:.2f} ms"]
                for s in report.shards]
        table = format_table(
            ["shard", "key", "particles", "steps", "busy"], rows,
            f"Sharded push — {spec!r}, strategy {report.strategy}")
        return (f"{table}\ngroup NSPS {report.nsps:.3f} "
                f"({report.n_particles} particles on "
                f"{report.n_devices} devices)")


class FusionSuite(_BaselineParamsMixin, RegressionTest):
    suite = "fusion"
    descr = "kernel-graph fusion: fused vs unfused, bit-exact, JIT cost"
    tags = frozenset({"smoke", "graph"})
    devices = ("iris-xe-max",)
    backends = ("oneapi",)
    parameters = {"config": ("unfused", "fused")}

    DEFAULT_N = 200_000
    DEFAULT_STEPS = 8
    DEFAULT_WARMUP = 2

    def _device(self) -> str:
        snapshot = self._latest()
        if snapshot is not None and snapshot.cells:
            return snapshot.cells[0].keys.get("device", "iris-xe-max")
        return "iris-xe-max"

    def run(self, n: Optional[int] = None) -> SuiteArtifact:
        from ..bench.harness import fusion_rows
        n = n if n is not None else self.baseline_n(self.DEFAULT_N)
        steps = int(self.baseline_param("steps", self.DEFAULT_STEPS))
        warmup = int(self.baseline_param("warmup", self.DEFAULT_WARMUP))
        reports = fusion_rows(n=n, steps=steps, warmup=warmup,
                              device=self._device())
        return SuiteArtifact(reports, n,
                             {"steps": steps, "warmup": warmup})

    def cells(self, artifact: SuiteArtifact) -> List[Dict[str, object]]:
        cells = []
        for config, report in artifact.data.items():
            cell = report.as_cell(self.suite, config=config,
                                  tolerance=self.default_tolerance)
            cells.append(cell)
        return cells

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        reports = artifact.data
        checks = super().sanity(artifact, cells)
        fused, unfused = reports["fused"], reports["unfused"]
        checks.append(SanityCheck(
            "fusion: fused and unfused states bit-identical",
            f"digests {fused.digest[:12]} / {unfused.digest[:12]}",
            fused.digest == unfused.digest))
        checks.append(SanityCheck(
            "fusion: warm fused NSPS beats unfused",
            f"fused {fused.nsps:.3f} vs unfused {unfused.nsps:.3f}",
            fused.nsps < unfused.nsps))
        checks.append(SanityCheck(
            "fusion: fused chain compiles cheaper than unfused",
            f"JIT {fused.cache_stats.get('jit_seconds_charged', 0.0):.2f}"
            f" vs "
            f"{unfused.cache_stats.get('jit_seconds_charged', 0.0):.2f} s",
            fused.cache_stats.get("jit_seconds_charged", 0.0)
            <= unfused.cache_stats.get("jit_seconds_charged", 0.0)))
        return checks

    def render(self, artifact: SuiteArtifact) -> str:
        from ..bench.tables import format_table
        rows = [[name, f"{r.nsps:.3f}", f"{r.first_step_nsps:.3f}",
                 r.fusion_groups, r.kernels_eliminated, r.digest[:12]]
                for name, r in artifact.data.items()]
        return format_table(
            ["config", "warm NSPS", "cold NSPS", "groups", "elided",
             "digest"],
            rows, "Kernel-graph fusion — fused vs unfused "
                  "(identical digests = bit-exact)")


class PortabilitySuite(_BaselineParamsMixin, RegressionTest):
    suite = "portability"
    descr = "Pennycook PP: autotuned vs portable config, every backend"
    tags = frozenset({"smoke", "backends"})
    backends = ("oneapi", "cuda")
    parameters = {"config": ("auto", "portable")}

    def __init__(self, directory=None):
        super().__init__(directory)
        from ..backends.registry import all_device_specs
        self.devices = tuple(all_device_specs())

    @property
    def default_tolerance(self) -> float:
        from ..backends.portability import PP_DRIFT_TOLERANCE
        return PP_DRIFT_TOLERANCE

    #: ``predicted_nsps`` is the autotuner's cost-model prediction, a
    #: deterministic function of the committed calibration: any change
    #: is predictor drift, so it is compared exactly.
    compared_metrics = ("pp", "predicted_nsps")
    metric_tolerances = {"predicted_nsps": 0.0}

    def run(self, n: Optional[int] = None) -> SuiteArtifact:
        from ..backends.portability import (DEFAULT_N_PARTICLES,
                                            DEFAULT_STEPS, DEFAULT_WARMUP,
                                            measure_portability)
        n = n if n is not None else self.baseline_n(DEFAULT_N_PARTICLES)
        steps = int(self.baseline_param("steps", DEFAULT_STEPS))
        warmup = int(self.baseline_param("warmup", DEFAULT_WARMUP))
        # PP is defined over the whole platform set: the sweep always
        # covers every registered device, so a baseline missing one
        # (or a device added to the registry) fails the sanity stage.
        report = measure_portability(devices=self.devices,
                                     n_particles=n, steps=steps,
                                     warmup=warmup)
        return SuiteArtifact(report, n,
                             {"steps": steps, "warmup": warmup})

    def cells(self, artifact: SuiteArtifact) -> List[Dict[str, object]]:
        report = artifact.data
        cells = []
        for row in report.devices:
            metrics = {"best_nsps": row.best_nsps,
                       "portable_nsps": row.portable_nsps,
                       "efficiency": row.efficiency}
            if row.predicted_nsps is not None:
                metrics["predicted_nsps"] = float(row.predicted_nsps)
            cells.append(self.make_cell(
                "efficiency", row.device, metrics, backend=row.backend,
                best_label=row.best_label))
        pp_cell = self.make_cell("pp", "*", {"pp": report.pp},
                                 backend="*")
        pp_cell["extra"] = {
            "portable_config": dict(report.portable_config)}
        cells.append(pp_cell)
        return cells

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        report = artifact.data
        checks = super().sanity(artifact, cells)
        checks.append(SanityCheck(
            "portability: PP score within (0, 1]",
            f"pp = {report.pp:.4f}", 0.0 < report.pp <= 1.0))
        baseline = load_baseline(self.suite, self.directory)
        if baseline is not None and baseline.latest is not None:
            recorded = {cell.keys["device"]
                        for cell in baseline.latest.cells
                        if cell.keys.get("config") == "efficiency"}
            current = {row.device for row in report.devices}
            missing = sorted(recorded - current)
            added = sorted(current - recorded)
            checks.append(SanityCheck(
                "portability: device set matches the baseline",
                "; ".join([f"missing {missing}"] * bool(missing)
                          + [f"added {added}"] * bool(added))
                or f"{len(current)} devices",
                not missing and not added))
        return checks

    def render(self, artifact: SuiteArtifact) -> str:
        from ..bench.tables import format_table
        report = artifact.data
        rows = [[row.device, row.backend,
                 f"{row.best_nsps:.3f}", row.best_label,
                 f"{row.portable_nsps:.3f}", f"{row.efficiency:.3f}"]
                for row in report.devices]
        table = format_table(
            ["device", "backend", "best NSPS", "best config",
             "portable NSPS", "efficiency"],
            rows,
            "Performance portability — autotuned vs fixed "
            "SoA/float/fused")
        return (f"{table}\nPP score (harmonic mean of efficiencies): "
                f"{report.pp:.4f} over {len(report.devices)} devices — "
                f"see docs/BACKENDS.md")


class PicSuite(_BaselineParamsMixin, RegressionTest):
    suite = "pic"
    descr = "self-consistent PIC step through the kernel graph " \
            "(fused vs unfused, energy-conserving)"
    tags = frozenset({"smoke", "pic", "graph"})
    devices = ("iris-xe-max",)
    backends = ("oneapi",)
    parameters = {"config": ("unfused", "fused"),
                  "scenario": ("laser-slab",)}

    DEFAULT_N = 2048
    DEFAULT_STEPS = 6
    DEFAULT_WARMUP = 2
    DEFAULT_SCENARIO = "laser-slab"
    DEFAULT_SEED = 7

    def _replay_config(self) -> Tuple[str, str]:
        """(scenario, device) of the committed cell, or defaults."""
        snapshot = self._latest()
        if snapshot is not None and snapshot.cells:
            cell = snapshot.cells[0]
            return (cell.keys.get("scenario", self.DEFAULT_SCENARIO),
                    cell.keys.get("device", "iris-xe-max"))
        return self.DEFAULT_SCENARIO, "iris-xe-max"

    def run(self, n: Optional[int] = None) -> SuiteArtifact:
        from ..api import PicConfig, run_pic
        scenario, device = self._replay_config()
        n = n if n is not None else self.baseline_n(self.DEFAULT_N)
        steps = int(self.baseline_param("steps", self.DEFAULT_STEPS))
        warmup = int(self.baseline_param("warmup", self.DEFAULT_WARMUP))
        seed = int(self.baseline_param("seed", self.DEFAULT_SEED))
        reports = {}
        for name, fusion in (("fused", True), ("unfused", False)):
            config = PicConfig(scenario=scenario, n_particles=n,
                               steps=steps, warmup=warmup, seed=seed,
                               device=device, fusion=fusion)
            # validate=True replays every launch through the hazard
            # detector — the suite run doubles as the hazard gate.
            reports[name] = run_pic(config, validate=True)
        return SuiteArtifact(reports, n,
                             {"steps": steps, "warmup": warmup,
                              "seed": seed})

    def cells(self, artifact: SuiteArtifact) -> List[Dict[str, object]]:
        return [report.as_cell(self.suite, config=name,
                               tolerance=self.default_tolerance)
                for name, report in artifact.data.items()]

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        from ..pic.scenarios import get_scenario
        reports = artifact.data
        checks = super().sanity(artifact, cells)
        fused, unfused = reports["fused"], reports["unfused"]
        checks.append(SanityCheck(
            "pic: fused and unfused end states bit-identical "
            "(particles + grid)",
            f"digests {fused.digest[:12]} / {unfused.digest[:12]}",
            fused.digest == unfused.digest))
        checks.append(SanityCheck(
            "pic: warm fused NSPS beats unfused",
            f"fused {fused.nsps:.3f} vs unfused {unfused.nsps:.3f}",
            fused.nsps < unfused.nsps))
        bound = get_scenario(fused.scenario).energy_tolerance
        for name, report in reports.items():
            checks.append(SanityCheck(
                f"pic: {name} total-energy drift within the "
                f"{fused.scenario!r} bound",
                f"{report.energy_drift:.2e} <= {bound:.0e}",
                report.energy_drift <= bound))
        return checks

    def render(self, artifact: SuiteArtifact) -> str:
        from ..bench.tables import format_table
        rows = [[name, f"{r.nsps:.3f}", f"{r.first_step_nsps:.3f}",
                 r.fusion_groups, r.kernels_eliminated,
                 f"{r.energy_drift:.2e}", r.digest[:12]]
                for name, r in artifact.data.items()]
        sample = next(iter(artifact.data.values()))
        return format_table(
            ["config", "warm NSPS", "cold NSPS", "groups", "elided",
             "energy drift", "digest"],
            rows, f"PIC step through the kernel graph — "
                  f"{sample.scenario}, {sample.deposition} deposition, "
                  f"{sample.solver} solver")


#: Declaration order is execution and listing order.
SUITES: Dict[str, type] = {
    "table2": Table2Suite,
    "table3": Table3Suite,
    "fig1": Fig1Suite,
    "first-iter": FirstIterSuite,
    "threads": ThreadsSuite,
    "measure": MeasureSuite,
    "shard": ShardSuite,
    "fusion": FusionSuite,
    "portability": PortabilitySuite,
    "pic": PicSuite,
}


def get_suite(name: str, directory=None) -> RegressionTest:
    """Instantiate one declared suite by name (typed error on unknown)."""
    try:
        factory = SUITES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown bench suite {name!r}; declared suites: "
            f"{', '.join(SUITES)}") from None
    return factory(directory=directory)


def all_suites(directory=None) -> List[RegressionTest]:
    """Every declared suite, in declaration order."""
    return [factory(directory=directory)
            for factory in SUITES.values()]
