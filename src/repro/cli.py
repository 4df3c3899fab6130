"""Command-line interface: regenerate any of the paper's artefacts.

Usage::

    python -m repro bench --list      # the declared regression suites
    python -m repro bench table2      # one suite's artefact (model vs paper)
    python -m repro bench --regress --filter smoke   # drift-check matrix
    python -m repro bench fusion --record            # append a v1 snapshot
    python -m repro devices           # device inventory, every backend
    python -m repro bench portability # Pennycook PP score sweep
    python -m repro trace table2 --out t.json   # traced run -> Chrome JSON

``repro bench`` is the one entry point over every benchmark artefact
and every committed baseline (see docs/BENCHMARKS.md): each suite is a
declarative :class:`repro.regress.RegressionTest`, ``--regress`` runs
the sanity + performance stages of the selected matrix and exits 1
with a per-cell diff on drift, ``--record`` appends a schema-v1
snapshot to ``benchmarks/BENCH_<suite>.json``.  ``repro trace SUITE``
runs ``repro bench SUITE`` under the tracer.  These two commands are
the only ones that write a baseline: ``--record/--record-dir`` exist
nowhere else.

Device flags accept backend-qualified specs (``cuda:gpu0``) anywhere a
bare key (``cpu``, ``iris-xe-max``) works; ``repro devices --backend
cuda`` filters the inventory and ``repro bench portability`` scores
the portable configuration across the whole matrix (docs/BACKENDS.md).

``--particles`` scales the modelled ensemble (default: the paper's
1e7; the model is O(1) in memory, so the default is cheap).

Any command can also be traced in place with the ``--trace`` flag,
accepted before or after the command:
``python -m repro bench table2 --trace out.json``.
Both spellings write a Chrome ``trace_event`` file (open it in
``chrome://tracing`` or https://ui.perfetto.dev) and print the
per-kernel summary table; see ``docs/PROFILING.md``.

Fault injection (see ``docs/RESILIENCE.md``) follows the same pattern:
``--fault-plan PLAN --fault-seed N`` runs any command with the named
deterministic fault plan installed, and ``python -m repro faults``
runs a resilient push under that plan (``default`` when none is
given)::

    python -m repro faults --fault-plan device-loss --steps 20
    python -m repro faults --self-check        # chaos seed matrix
    python -m repro bench table2 --fault-plan transient --fault-seed 7

``python -m repro push`` is the facade command: one
:class:`repro.api.RunConfig` driven end to end (single-device,
resilient or sharded — the mode follows from the flags), with
``--fusion/--no-fusion`` selecting the kernel-graph execution path
(``repro bench fusion`` is the fused-vs-unfused comparison).
``repro shard`` and ``repro faults`` are facade runs too: each builds
a ``RunConfig`` (a group, or a fault plan over the fallback ladder)
and prints the group or recovery report of that one ``run_push``.

``python -m repro serve`` runs a multi-job demo schedule through the
fault-tolerant job scheduler (:mod:`repro.service`) — mixed priorities
and tenants, one job carrying an injected device loss — and ``python
-m repro submit`` pushes a single job through it with service-level
knobs (``--priority``, ``--tenant``, ``--deadline``, ``--budget``).
For these two commands the global ``--fault-plan`` scopes injection to
*per-job* injectors instead of installing one process-wide.  See
``docs/SERVICE.md``.

Runner commands (``bench shard faults push pic serve submit``, and
``trace`` passing through) share one normalized flag set —
``--device``, ``--group``, ``--precision``, ``--layout`` — defined
once in a parent parser, so every command spells them identically.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .bench import DEVICE_NAMES, device_by_name, format_table
from .fp import Precision
from .oneapi.runtime import FUSION_LABELS
from .particles.ensemble import Layout

__all__ = ["main"]

#: The paper's ensemble size — the default of ``repro validate``
#: (``repro bench`` instead replays each suite's committed baseline
#: configuration when ``--particles`` is omitted).
DEFAULT_PARTICLES = 10_000_000


def _particles(args: argparse.Namespace) -> int:
    """The global ``--particles`` with the paper's default applied."""
    return args.particles if args.particles is not None \
        else DEFAULT_PARTICLES


def _baseline_dir(args: argparse.Namespace):
    return getattr(args, "record_dir", None)


def _record_cells(args: argparse.Namespace, suite: str, cells,
                  n_particles: int, params=None) -> None:
    """Append a schema-v1 baseline snapshot when ``--record`` was given.

    The normalized ``--layout/--precision/--device`` flags act as cell
    filters here: the printed model-vs-paper table always shows every
    cell (it mirrors the paper's layout), but the recorded snapshot
    can be narrowed to the cells under study.
    """
    if not getattr(args, "record", False):
        return
    for key in ("layout", "precision", "device"):
        want = getattr(args, key, None)
        if want is not None:
            cells = [c for c in cells if c.get(key) == want]
    from .regress import append_snapshot
    path = append_snapshot(suite, cells, n_particles,
                           directory=_baseline_dir(args), params=params)
    print(f"recorded snapshot -> {path}")


def _run_bench_suite(suite_name: str, args: argparse.Namespace,
                     n=None) -> None:
    """Display one declared suite: run, render, optionally record."""
    from .errors import ConfigurationError
    from .regress import get_suite
    test = get_suite(suite_name, directory=_baseline_dir(args))
    kwargs = {}
    if suite_name == "measure":
        kwargs["steps"] = getattr(args, "measure_steps", 5)
        n = getattr(args, "measure_particles", 200_000)
    if getattr(args, "record", False) and not test.has_baseline:
        raise ConfigurationError(
            f"suite {suite_name!r} records no baseline (sanity-only or "
            f"host-dependent); drop --record")
    artifact = test.run(n=n, **kwargs)
    print(test.render(artifact))
    if test.has_baseline:
        _record_cells(args, suite_name, test.cells(artifact),
                      artifact.n_particles, artifact.params)


def _cmd_bench(args: argparse.Namespace) -> None:
    from .errors import ConfigurationError
    from .regress import parse_filter, render_listing, run_regression
    directory = _baseline_dir(args)
    test_filter = parse_filter(getattr(args, "filter", None))
    suites = list(args.bench_suites) or None
    if getattr(args, "record", False) and args.regress:
        raise ConfigurationError(
            "--record and --regress are exclusive: a regression run "
            "must compare against the committed reference, not move it")
    if args.list_suites:
        print(render_listing(test_filter, directory=directory))
        return
    if getattr(args, "json", False) and not args.regress:
        raise ConfigurationError(
            "--json reports a regression run; pair it with --regress")
    if args.regress:
        emit_json = getattr(args, "json", False)
        report = run_regression(test_filter, directory=directory,
                                suites=suites, n=args.particles,
                                progress=None if emit_json else print)
        if emit_json:
            import json as json_module
            print(json_module.dumps(report.as_dict(), indent=2))
        else:
            print(report.render())
        if not report.passed:
            raise SystemExit(1)
        return
    if not suites:
        raise ConfigurationError(
            "repro bench: name a suite, or pass --list / --regress "
            "(try 'repro bench --list')")
    for name in suites:
        _run_bench_suite(name, args, n=args.particles)


def _cmd_escape(args: argparse.Namespace) -> None:
    from .analysis import run_escape_study
    curve = run_escape_study(args.power_pw * 1.0e22,
                             n_particles=args.escape_particles,
                             cycles=args.cycles,
                             samples_per_cycle=2,
                             steps_per_cycle=200)
    rows = [[f"{t:.1f}", f"{fraction:.3f}"]
            for t, fraction in zip(curve.times, curve.fractions)]
    print(format_table(["t / T", "remaining"], rows,
                       f"Escape from the focal region at "
                       f"{args.power_pw} PW"))
    print(f"escape rate: {curve.escape_rate():.2f} per cycle, "
          f"max gamma {curve.max_gamma:.0f}")


def _cmd_roofline(args: argparse.Namespace) -> None:
    from .analysis import analyze_graph
    from .bench.harness import replay_paper_graph
    from .oneapi import Queue

    n = 1_000_000
    rows = []
    for device_name in DEVICE_NAMES:
        device = device_by_name(device_name)
        for scenario in ("precalculated", "analytical"):
            graph, _ = replay_paper_graph(Queue(device), n, Layout.SOA,
                                          Precision.SINGLE, scenario,
                                          steps=0)
            roofline = analyze_graph(graph, device)
            point = roofline.groups[0].point
            rows.append([
                device_name, scenario,
                f"{point.arithmetic_intensity:.2f}",
                f"{point.ridge_intensity:.2f}",
                roofline.bound,
                f"{roofline.predicted_nsps(n):.2f}",
            ])
    print(format_table(
        ["device", "scenario", "flops/byte", "ridge", "bound",
         "roofline NSPS"],
        rows, "Roofline analysis — Boris push, SoA, single precision"))
    print("(the paper's explanation — 'the problem is memory bound' — "
          "holds left of each ridge)")


def _cmd_validate(args: argparse.Namespace) -> None:
    from .bench.validation import validate_against_paper
    report = validate_against_paper(n=_particles(args))
    print(report.render())
    failed = not report.all_passed
    if not getattr(args, "no_differential", False):
        # Differential half: every engine x layout x precision x fusion
        # combination against the scalar reference (plus per-queue
        # hazard replay, which raises on a missing depends_on edge).
        # The service cells ride along: fault-free and device-loss jobs
        # against solo run_push runs of the same config.
        from .validation import run_differential, run_service_differential
        for sweep in (run_differential, run_service_differential):
            print()
            diff = sweep(n=getattr(args, "diff_particles", 192),
                         steps=getattr(args, "diff_steps", 3))
            print(diff.render())
            failed = failed or not diff.all_passed
    if not getattr(args, "no_pic", False):
        # PIC half: every scenario x layout x execution mode of the
        # lowered PIC step must agree with the reference simulation to
        # the bit (see docs/PIC.md), with hazard-free engine replays.
        from .validation import run_pic_differential
        print()
        pic = run_pic_differential(
            n=getattr(args, "pic_diff_particles", 96),
            steps=getattr(args, "pic_diff_steps", 2))
        print(pic.render())
        failed = failed or not pic.all_passed
    if failed:
        raise SystemExit(1)


def _cmd_devices(args: argparse.Namespace) -> None:
    from .backends.registry import (all_device_specs, host_link_for,
                                    resolve_device)
    specs = all_device_specs(backend=getattr(args, "backend", None))
    rows = []
    for spec in specs:
        backend, device = resolve_device(spec)
        link = host_link_for(spec)
        rows.append([
            spec, backend.name, device.name, device.device_type.value,
            device.compute_units, device.threads_per_unit,
            device.numa_domains,
            f"{device.peak_flops(Precision.SINGLE) / 1e12:.2f} TF",
            f"{device.peak_flops(Precision.DOUBLE) / 1e12:.2f} TF",
            f"{device.total_bandwidth / 1e9:.0f} GB/s",
            f"{link.name} ({link.bandwidth / 1e9:.1f} GB/s)",
        ])
    print(format_table(
        ["spec", "backend", "device", "type", "units", "thr/u", "domains",
         "peak SP", "peak DP", "bandwidth", "host link"],
        rows, "Simulated devices (paper Table 1 + CUDA-class cards)"))
    print("(peak DP on the Iris Xe Max reflects emulated double "
          "precision; 'host link' prices sharded exchange — "
          "see docs/DISTRIBUTED.md and docs/BACKENDS.md)")


def _cmd_shard(args: argparse.Namespace) -> None:
    from .api import RunConfig, run_push

    group_spec = args.group or "2x iris-xe-max"
    report = run_push(RunConfig(
        n_particles=args.shard_particles, steps=args.steps, warmup=2,
        group=group_spec, strategy=args.strategy,
        layout=args.layout or Layout.SOA,
        precision=args.precision or Precision.SINGLE,
        checkpoint_every=args.checkpoint_every)).group_report
    rows = [[s.name, s.key, s.particles, s.steps,
             f"{s.busy_seconds * 1e3:.2f} ms",
             "-" if s.mean_nsps != s.mean_nsps else f"{s.mean_nsps:.2f}"]
            for s in report.shards]
    print(format_table(
        ["shard", "key", "particles", "steps", "busy", "NSPS"],
        rows,
        f"Sharded push — {group_spec!r}, strategy {report.strategy}"))
    print(f"group NSPS {report.nsps:.3f} over {args.steps} steps "
          f"({report.n_particles} particles on {report.n_devices} "
          f"devices); imbalance {report.imbalance:.2f}")
    print(f"exchange: {report.exchange.transfers} transfers, "
          f"{report.exchange.total_bytes} bytes, "
          f"{report.exchange.stalls} stalls; "
          f"redistributions {report.redistributions}")


def _cmd_faults(args: argparse.Namespace) -> None:
    from .api import RunConfig, run_push
    from .resilience import chaos_self_check
    from .resilience.runner import DEVICE_LADDER

    if args.self_check:
        results = chaos_self_check(seeds=tuple(range(args.check_seeds)),
                                   steps=args.steps)
        rows = [[r.plan, r.seed, r.outcome, r.faults, r.retries,
                 r.devices_lost]
                for r in results.values()]
        print(format_table(
            ["plan", "seed", "outcome", "faults", "retries", "lost"],
            rows, "Chaos self-check — every plan x seed matrix"))
        survived = sum(r.survived for r in results.values())
        print(f"{survived}/{len(results)} cells completed all steps; "
              f"every cell stayed within the documented error taxonomy "
              f"and kept finite physics")
        return

    # --device moves that rung to the front of the fallback ladder
    ladder = DEVICE_LADDER if args.device is None else \
        (args.device,) + tuple(d for d in DEVICE_LADDER
                               if d != args.device)
    warmup = min(2, max(args.steps - 1, 0))
    report = run_push(RunConfig(
        n_particles=args.fault_particles, steps=args.steps - warmup,
        warmup=warmup, devices=ladder,
        fault_plan=args.fault_plan or "default",
        fault_seed=args.fault_seed,
        layout=args.layout or Layout.SOA,
        precision=args.precision or Precision.SINGLE,
        checkpoint_every=args.checkpoint_every))
    print(report.recovery.summary())
    print(f"  NSPS with recovery cost folded in: {report.nsps:.2f}")


def _cmd_push(args: argparse.Namespace) -> None:
    from .api import RunConfig, run_push

    config = RunConfig(
        scenario=args.scenario,
        layout=args.layout or Layout.SOA,
        precision=args.precision or Precision.SINGLE,
        n_particles=args.push_particles, steps=args.steps,
        warmup=args.warmup,
        device=args.device or "iris-xe-max", group=args.group,
        fault_plan=getattr(args, "fault_plan", None),
        fault_seed=getattr(args, "fault_seed", 0),
        fusion=args.fusion, diagnostics=args.diagnostics,
        checkpoint_every=args.checkpoint_every,
        persist_cache=args.persist_cache,
        config="auto" if getattr(args, "auto", False) else None)
    report = run_push(config, validate=getattr(args, "validate", False))
    if report.tuning is not None:
        print(format_table(
            ["candidate", "predicted NSPS", "bound"],
            [[p.candidate.label, f"{p.predicted_nsps:.3f}", p.bound]
             for p in report.tuning.ranked],
            f"Autotuner search — {report.tuning.mode} mode on "
            f"{report.tuning.target!r} (best first; see docs/TUNING.md)"))
        print()
    rows = [
        ["mode", report.mode],
        ["device", report.device],
        ["scenario/layout/precision",
         f"{report.scenario}/{report.layout}/{report.precision}"],
        ["execution", FUSION_LABELS[report.fusion]],
        ["steady NSPS", f"{report.nsps:.3f}"],
        ["first-step NSPS (cold)", f"{report.first_step_nsps:.3f}"],
        ["simulated seconds", f"{report.simulated_seconds:.6f}"],
        ["state digest", report.digest[:16]],
    ]
    if report.fusion is not None:
        rows.append(["fusion groups / kernels elided",
                     f"{report.fusion_groups} / "
                     f"{report.kernels_eliminated}"])
    if report.cache_stats:
        rows.append(["program cache",
                     f"{report.cache_stats['hits']:.0f} hits, "
                     f"{report.cache_stats['misses']:.0f} misses, "
                     f"{report.cache_stats['jit_seconds_charged']:.2f} s "
                     f"JIT"])
    if report.validation is not None:
        v = report.validation
        rows.append(["validation",
                     f"hazard-free ({v.commands_checked} commands); "
                     f"max {v.max_ulp:.1f} ULP on {v.worst_component!r} "
                     f"over {v.checked_particles} particles "
                     f"(tolerance {v.tolerance:.0f})"])
    if report.predicted_nsps is not None:
        rows.append(["autotuned",
                     f"{report.tuning.best.candidate.label} — predicted "
                     f"{report.predicted_nsps:.3f} NSPS, measured "
                     f"{report.nsps:.3f}"])
    print(format_table(["field", "value"], rows,
                       f"repro.api.run_push — {report.n_particles} "
                       f"particles x {report.steps} steps"))
    for warning in report.calibration_warnings:
        print(f"warning: {warning}")


def _cmd_pic(args: argparse.Namespace) -> None:
    from .api import PicConfig, run_pic

    config = PicConfig(
        scenario=args.scenario,
        layout=args.layout or Layout.SOA,
        precision=args.precision or Precision.DOUBLE,
        n_particles=args.pic_particles, steps=args.steps,
        warmup=args.warmup, seed=args.seed,
        deposition=args.deposition, solver=args.solver,
        device=args.device or "iris-xe-max",
        fusion=args.fusion)
    report = run_pic(config, validate=getattr(args, "validate", False))
    rows = [
        ["scenario", report.scenario],
        ["device", report.device],
        ["layout/precision", f"{report.layout}/{report.precision}"],
        ["deposition/solver", f"{report.deposition}/{report.solver}"],
        ["execution", FUSION_LABELS[report.fusion]],
        ["steady NSPS", f"{report.nsps:.3f}"],
        ["first-step NSPS (cold)", f"{report.first_step_nsps:.3f}"],
        ["simulated seconds", f"{report.simulated_seconds:.6f}"],
        ["energy drift", f"{report.energy_drift:.3e}"],
        ["state digest (particles+grid)", report.digest[:16]],
        ["fusion groups / kernels elided",
         f"{report.fusion_groups} / {report.kernels_eliminated}"],
    ]
    if report.cache_stats:
        rows.append(["program cache",
                     f"{report.cache_stats['hits']:.0f} hits, "
                     f"{report.cache_stats['misses']:.0f} misses, "
                     f"{report.cache_stats['jit_seconds_charged']:.2f} s "
                     f"JIT"])
    print(format_table(["field", "value"], rows,
                       f"repro.api.run_pic — {report.n_particles} "
                       f"particles x {report.steps} steps"))


def _service_stream(name: str, event: str, detail: str) -> None:
    """The ``on_event`` hook: one line per job lifecycle event."""
    print(f"  [{name}] {event}" + (f" — {detail}" if detail else ""))


def _cmd_serve(args: argparse.Namespace) -> None:
    from .api import RunConfig
    from .errors import JobRejectedError
    from .service import JobSpec, PushService

    service = PushService(
        fleet=args.fleet,
        on_event=None if args.quiet else _service_stream)
    plan = getattr(args, "fault_plan", None) or "device-loss"
    tenants = ("alice", "bob")
    print(f"schedule: {args.jobs} jobs on {args.fleet!r} "
          f"(job-1 carries the {plan!r} fault plan)")
    for index in range(args.jobs):
        spec = JobSpec(
            f"job-{index}",
            RunConfig(n_particles=args.serve_particles,
                      steps=args.steps, warmup=1,
                      device=args.device or "iris-xe-max",
                      layout=args.layout or Layout.SOA,
                      precision=args.precision or Precision.SINGLE),
            tenant=tenants[index % len(tenants)],
            priority=index % 3,
            fault_plan=plan if index == 1 else None,
            fault_seed=getattr(args, "fault_seed", 0))
        try:
            service.submit(spec)
        except JobRejectedError as exc:
            print(f"  rejected: {exc}")
    report = service.run()
    print()
    print(report.summary())
    if not report.all_completed:
        raise SystemExit(1)


def _cmd_submit(args: argparse.Namespace) -> None:
    from .api import RunConfig
    from .service import JobSpec, PushService

    config = RunConfig(
        scenario=args.scenario,
        layout=args.layout or Layout.SOA,
        precision=args.precision or Precision.SINGLE,
        n_particles=args.submit_particles, steps=args.steps,
        warmup=args.warmup,
        device=args.device or "iris-xe-max", group=args.group,
        fusion=args.fusion)
    spec = JobSpec(args.name, config, tenant=args.tenant,
                   priority=args.priority,
                   deadline_seconds=args.deadline,
                   budget_seconds=args.budget,
                   fault_plan=getattr(args, "fault_plan", None),
                   fault_seed=getattr(args, "fault_seed", 0))
    service = PushService(
        fleet=args.fleet,
        on_event=None if args.quiet else _service_stream)
    service.submit(spec)        # JobRejectedError -> exit 2 via main()
    report = service.run()
    job = report.jobs[args.name]
    print()
    print(job.summary())
    rows = [
        ["state", job.state],
        ["devices", ", ".join(job.devices) or "-"],
        ["queue wait", f"{job.queue_wait_seconds * 1e3:.3f} ms"],
        ["device seconds", f"{job.device_seconds * 1e3:.3f} ms"],
        ["retries / restores / preemptions",
         f"{job.retries} / {job.restores} / {job.preemptions}"],
        ["checkpoints saved / pruned",
         f"{job.checkpoints_saved} / {job.checkpoints_pruned}"],
    ]
    if job.completed:
        rows.insert(1, ["steady NSPS", f"{job.nsps:.3f}"])
        rows.insert(2, ["state digest", job.digest[:16]])
    else:
        rows.insert(1, ["error", f"{job.error_type}: {job.error}"])
    print(format_table(["field", "value"], rows,
                       f"repro submit — {args.name!r} on {args.fleet!r}"))
    if not job.completed:
        raise SystemExit(1)


def _add_trace_flag(parser: argparse.ArgumentParser, default) -> None:
    parser.add_argument("--trace", metavar="OUT.json", default=default,
                        help="run the command under the tracer and write "
                             "a Chrome trace_event JSON (open in "
                             "chrome://tracing or Perfetto)")


def _add_fault_flags(parser: argparse.ArgumentParser, default) -> None:
    from .resilience.plans import PLAN_NAMES
    parser.add_argument("--fault-plan", choices=PLAN_NAMES, default=default,
                        help="run the command with this deterministic "
                             "fault plan installed (see docs/RESILIENCE.md)")
    parser.add_argument("--fault-seed", type=int,
                        default=0 if default is None else default,
                        help="seed of the fault injector's RNG streams "
                             "(same plan + seed + workload => identical "
                             "faults; default 0)")


def _runner_parent() -> argparse.ArgumentParser:
    """The shared flag set of every runner command.

    One definition, attached as an argparse *parent*, so ``bench``,
    ``shard``, ``faults``, ``push``, ``pic``, ``serve``, ``submit``
    and ``trace`` all spell device/group/precision/layout selection
    identically.
    Commands map each flag onto their own semantics (``bench`` filters
    recorded cells; ``shard`` builds its ensemble; ``faults``
    reorders the fallback ladder).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--device", default=None, metavar="SPEC",
                        help="target device spec, optionally backend-"
                             "qualified ('iris-xe-max', 'cuda:gpu0'; "
                             "see 'repro devices'); validated by the "
                             "backend registry, so unknown backends "
                             "or keys exit 2 (command-specific "
                             "default; for tables, filters recorded "
                             "cells)")
    parent.add_argument("--group", default=None, metavar="SPEC",
                        help="device-group spec: comma-separated keys, "
                             "each optionally '<n>x <key>' (e.g. "
                             "'2x iris-xe-max'); selects sharded "
                             "execution where supported")
    parent.add_argument("--precision", choices=["float", "double"],
                        default=None,
                        help="arithmetic precision (command-specific "
                             "default)")
    parent.add_argument("--layout", choices=["AoS", "SoA"], default=None,
                        help="particle storage layout (command-specific "
                             "default)")
    return parent


def _add_record_flags(parser: argparse.ArgumentParser) -> None:
    """``--record/--record-dir`` of the two commands that reach
    :func:`_run_bench_suite` (``bench`` and ``trace``): the one writer
    of the ``benchmarks/BENCH_*.json`` baselines."""
    parser.add_argument("--record", action="store_true",
                        help="append this run's cells as a schema-v1 "
                             "snapshot of the suite's "
                             "benchmarks/BENCH_*.json baseline file")
    parser.add_argument("--record-dir", default=None, metavar="DIR",
                        help="directory of the baseline files "
                             "(default: ./benchmarks)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the Boris-on-"
                    "DPC++ paper from the simulated oneAPI runtime.")
    parser.add_argument("--particles", type=int, default=None,
                        help="modelled particle count (default: "
                             "'repro bench' replays each suite's "
                             "committed baseline configuration; "
                             "'repro validate' uses the paper's 1e7)")
    _add_trace_flag(parser, default=None)
    _add_fault_flags(parser, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    parent = _runner_parent()
    bench = sub.add_parser(
        "bench", parents=[parent],
        help="the declarative regression farm: run, list, regress or "
             "record any declared suite (see docs/BENCHMARKS.md)")
    _add_record_flags(bench)
    bench.add_argument("bench_suites", nargs="*", metavar="SUITE",
                       help="declared suite name(s) — see "
                            "'repro bench --list'; optional with "
                            "--list/--regress (then the filter selects)")
    bench.add_argument("--regress", action="store_true",
                       help="run the sanity + performance stages of the "
                            "selected matrix against the committed "
                            "baselines; exit 1 with a per-cell diff on "
                            "drift")
    bench.add_argument("--json", action="store_true",
                       help="with --regress: print the machine-readable "
                            "per-cell report as JSON instead of the "
                            "rendered diff (exit code unchanged)")
    bench.add_argument("--list", action="store_true", dest="list_suites",
                       help="list the declared suites, their tags, axes "
                            "and baseline state")
    bench.add_argument("--filter", action="append", default=None,
                       metavar="EXPR",
                       help="select suites: comma-separated terms, each "
                            "a bare suite/tag name or "
                            "suite=/device=/backend=/tag=NAME; repeat "
                            "to AND (e.g. --filter smoke, --filter "
                            "device=cpu,tag=paper)")
    bench.add_argument("--measure-particles", type=int, default=200_000,
                       help="ensemble size of the 'measure' suite "
                            "(default 200000)")
    bench.add_argument("--measure-steps", type=int, default=5,
                       help="timed steps of the 'measure' suite "
                            "(default 5)")
    escape = sub.add_parser("escape",
                            help="particle-escape physics study")
    escape.add_argument("--power-pw", type=float, default=0.1,
                        help="wave power in PW (paper: 0.1)")
    escape.add_argument("--escape-particles", type=int, default=5_000)
    escape.add_argument("--cycles", type=int, default=5)
    faults = sub.add_parser(
        "faults", parents=[parent],
        help="drive a resilient push under a named fault plan, or run "
             "the chaos self-check matrix")
    faults.add_argument("--steps", type=int, default=40,
                        help="push steps to run, the first two of them "
                             "warm-up (default 40)")
    faults.add_argument("--fault-particles", type=int, default=4096,
                        help="ensemble size for the resilient push "
                             "(default 4096; physics-carrying, so keep "
                             "it modest)")
    faults.add_argument("--checkpoint-every", type=int, default=5,
                        help="step-granular checkpoint cadence (default 5)")
    faults.add_argument("--self-check", action="store_true",
                        help="run every plan x seed chaos cell and "
                             "verify nothing escapes the documented "
                             "error taxonomy")
    faults.add_argument("--check-seeds", type=int, default=3,
                        help="seeds per plan for --self-check (default 3)")
    from .distributed.sharding import STRATEGY_NAMES
    shard = sub.add_parser(
        "shard", parents=[parent],
        help="run a sharded push across a multi-device group "
             "(see docs/DISTRIBUTED.md; --group defaults to "
             "'2x iris-xe-max')")
    shard.add_argument("--strategy", choices=STRATEGY_NAMES,
                       default="even",
                       help="sharding strategy (default even)")
    shard.add_argument("--steps", type=int, default=12,
                       help="measured push steps (default 12; two "
                            "warm-up steps run and reset first)")
    shard.add_argument("--shard-particles", type=int, default=200_000,
                       help="ensemble size (default 200000; "
                            "physics-carrying, so keep it modest)")
    shard.add_argument("--checkpoint-every", type=int, default=5,
                       help="checkpoint cadence enabling device-loss "
                            "redistribution (default 5)")
    push = sub.add_parser(
        "push", parents=[parent],
        help="run one push workload through the repro.api facade "
             "(single-device, resilient or sharded — the mode follows "
             "from the flags; see docs/API.md)")
    push.add_argument("--scenario", choices=["precalculated", "analytical"],
                      default="precalculated",
                      help="field handling (default precalculated)")
    push.add_argument("--steps", type=int, default=10,
                      help="measured push steps (default 10)")
    push.add_argument("--warmup", type=int, default=2,
                      help="warm-up steps excluded from steady NSPS "
                           "(default 2)")
    push.add_argument("--push-particles", type=int, default=200_000,
                      help="ensemble size (default 200000; "
                           "physics-carrying, so keep it modest)")
    push.add_argument("--fusion", action=argparse.BooleanOptionalAction,
                      default=None,
                      help="kernel-graph execution: --fusion fuses "
                           "compatible kernels, --no-fusion runs the "
                           "graph unfused; omit both for the paper's "
                           "harness (untimed field refresh, one timed "
                           "push launch)")
    push.add_argument("--auto", action="store_true",
                      help="let the roofline-driven autotuner pick "
                           "layout, precision and execution path "
                           "(overrides --layout/--precision/--fusion; "
                           "prints the ranked search and the "
                           "predicted-vs-measured NSPS — see "
                           "docs/TUNING.md)")
    push.add_argument("--diagnostics", action="store_true",
                      help="append the kinetic-energy diagnostic kernel "
                           "to each step's graph (single-device runs "
                           "only)")
    push.add_argument("--checkpoint-every", type=int, default=0,
                      help="step-granular checkpoint cadence for "
                           "resilient/sharded modes (default 0 = off)")
    push.add_argument("--persist-cache", default=None, metavar="PATH",
                      help="persist the JIT program cache to this file "
                           "(warm across processes, like "
                           "SYCL_CACHE_PERSISTENT)")
    push.add_argument("--validate", action="store_true",
                      help="after the run, replay every queue through "
                           "the hazard detector and diff a particle "
                           "sample against the scalar reference pusher "
                           "(see docs/VALIDATION.md)")
    from .pic.scenarios import scenario_names
    from .pic.simulation import DEPOSITIONS
    pic = sub.add_parser(
        "pic", parents=[parent],
        help="run a full self-consistent PIC scenario through the "
             "kernel-graph engine (gather/push/Monte Carlo/deposit/"
             "field-advance; see docs/PIC.md)")
    pic.add_argument("--scenario", choices=scenario_names(),
                     default="laser-slab",
                     help="registered PIC scenario (default laser-slab)")
    pic.add_argument("--pic-particles", type=int, default=None,
                     help="ensemble size (default: the scenario's; "
                          "physics-carrying, so keep it modest)")
    pic.add_argument("--steps", type=int, default=8,
                     help="measured PIC steps (default 8)")
    pic.add_argument("--warmup", type=int, default=2,
                     help="warm-up steps excluded from steady NSPS "
                          "(default 2)")
    pic.add_argument("--seed", type=int, default=0,
                     help="scenario seed: fixes the particle draw and "
                          "every Monte Carlo operator (default 0)")
    pic.add_argument("--deposition", choices=DEPOSITIONS,
                     default=None,
                     help="override the deposition scheme (default: "
                          "the scenario's, Esirkepov)")
    pic.add_argument("--solver", choices=["fdtd", "spectral"],
                     default=None,
                     help="override the Maxwell solver (default: the "
                          "scenario's, FDTD)")
    pic.add_argument("--fusion", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="kernel-graph execution: --fusion (default) "
                          "fuses the elementwise stages, --no-fusion "
                          "runs the graph unfused")
    pic.add_argument("--validate", action="store_true",
                     help="replay every launch through the hazard "
                          "detector after the run")
    from .service.scheduler import DEFAULT_FLEET
    serve = sub.add_parser(
        "serve", parents=[parent],
        help="run a demo multi-tenant job schedule through the "
             "fault-tolerant scheduler, with one injected device loss "
             "(see docs/SERVICE.md); exits 1 if any job fails")
    serve.add_argument("--fleet", default=DEFAULT_FLEET, metavar="SPEC",
                       help=f"device fleet spec (default "
                            f"{DEFAULT_FLEET!r})")
    serve.add_argument("--jobs", type=int, default=4,
                       help="how many jobs to submit (default 4; mixed "
                            "priorities and tenants)")
    serve.add_argument("--steps", type=int, default=6,
                       help="measured push steps per job (default 6)")
    serve.add_argument("--serve-particles", type=int, default=2000,
                       help="ensemble size per job (default 2000; "
                            "physics-carrying, so keep it modest)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the streamed per-job lifecycle "
                            "events")
    submit = sub.add_parser(
        "submit", parents=[parent],
        help="submit one job to the scheduler with service-level knobs "
             "(priority, tenant, deadline, budget); --fault-plan "
             "injects faults scoped to this job; exits 1 if the job "
             "fails, 2 if admission rejects it")
    submit.add_argument("--name", default="job",
                        help="job name (default 'job')")
    submit.add_argument("--fleet", default=DEFAULT_FLEET, metavar="SPEC",
                        help=f"device fleet spec (default "
                             f"{DEFAULT_FLEET!r})")
    submit.add_argument("--scenario",
                        choices=["precalculated", "analytical"],
                        default="precalculated",
                        help="field handling (default precalculated)")
    submit.add_argument("--steps", type=int, default=10,
                        help="measured push steps (default 10)")
    submit.add_argument("--warmup", type=int, default=2,
                        help="warm-up steps excluded from steady NSPS "
                             "(default 2)")
    submit.add_argument("--submit-particles", type=int, default=2000,
                        help="ensemble size (default 2000)")
    submit.add_argument("--priority", type=int, default=0,
                        help="scheduling priority (larger = more "
                             "urgent; default 0)")
    submit.add_argument("--tenant", default="default",
                        help="fair-share tenant identity")
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="fail the job if not completed within this "
                             "many simulated seconds after arrival")
    submit.add_argument("--budget", type=float, default=None,
                        metavar="SECONDS",
                        help="cap on simulated device seconds the job "
                             "may consume (recovery cost included)")
    submit.add_argument("--fusion", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="kernel-graph execution mode (as in "
                             "'repro push')")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress the streamed lifecycle events")
    validate = sub.add_parser(
        "validate",
        help="check every paper claim against the model, then run the "
             "differential sweep (every engine x layout x precision x "
             "fusion vs the scalar reference, plus service jobs vs solo "
             "runs; see docs/VALIDATION.md)")
    validate.add_argument("--diff-particles", type=int, default=192,
                          help="ensemble size of the differential sweep "
                               "(default 192; the scalar reference is "
                               "O(N x steps) Python, keep it small)")
    validate.add_argument("--diff-steps", type=int, default=3,
                          help="push steps per sweep combination "
                               "(default 3)")
    validate.add_argument("--no-differential", action="store_true",
                          help="paper-claim checks only, skip the "
                               "differential and service sweeps")
    validate.add_argument("--no-pic", action="store_true",
                          help="skip the PIC differential sweep (every "
                               "scenario x deposition x layout x mode "
                               "must agree bit-exactly; see docs/PIC.md)")
    validate.add_argument("--pic-diff-particles", type=int, default=96,
                          metavar="N",
                          help="particles per PIC sweep cell "
                               "(default 96)")
    validate.add_argument("--pic-diff-steps", type=int, default=2,
                          metavar="STEPS",
                          help="PIC steps per sweep cell (default 2)")
    devices = sub.add_parser(
        "devices",
        help="list simulated devices across every backend")
    devices.add_argument("--backend", default=None, metavar="NAME",
                         help="show one backend only ('oneapi' or "
                              "'cuda'); validated by the registry, so "
                              "an unknown name exits 2")
    commands = [
        bench,
        escape,
        sub.add_parser("roofline",
                       help="arithmetic-intensity analysis per device"),
        validate,
        devices,
        faults,
        shard,
        push,
        pic,
        serve,
        submit,
    ]
    for command in commands:
        # accept --trace after the command too; SUPPRESS keeps a value
        # given before the command from being clobbered by the default
        _add_trace_flag(command, default=argparse.SUPPRESS)
        _add_fault_flags(command, default=argparse.SUPPRESS)
    from .regress import SUITES
    trace = sub.add_parser(
        "trace", parents=[parent],
        help="run a bench suite (or 'validate') under the tracer and "
             "write a Chrome trace_event JSON")
    _add_record_flags(trace)
    trace.add_argument("trace_command", choices=[*SUITES, "validate"],
                       help="which bench suite to trace")
    trace.add_argument("--out", required=True, metavar="OUT.json",
                       help="path of the Chrome trace to write")
    return parser


_COMMANDS = {
    "bench": _cmd_bench,
    "escape": _cmd_escape,
    "roofline": _cmd_roofline,
    "validate": _cmd_validate,
    "devices": _cmd_devices,
    "faults": _cmd_faults,
    "shard": _cmd_shard,
    "push": _cmd_push,
    "pic": _cmd_pic,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}

def _run_traced(run, out: str) -> None:
    """Call ``run()`` under a fresh tracer; write trace + summary."""
    from .observability import (Tracer, format_kernel_summary, tracing,
                                write_chrome_trace)
    tracer = Tracer()
    with tracing(tracer):
        run()
    write_chrome_trace(tracer, out)
    if tracer.kernel_stats:
        print()
        print(format_kernel_summary(tracer))
    print(f"\ntrace written to {out} "
          f"({len(tracer.sim_slices)} simulated launches, "
          f"{len(tracer.spans)} host spans); open it in chrome://tracing "
          f"or https://ui.perfetto.dev")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 success, 1 checks-failed (``repro validate``, or a
    ``serve``/``submit`` schedule with a failed job), 2 usage or
    configuration error — argparse rejections and any
    :class:`~repro.errors.ReproError` (a bad ``--group`` spec, an
    unknown fault plan, a :class:`~repro.errors.JobRejectedError` from
    admission) all land on 2 with the message on stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    out = getattr(args, "trace", None)
    if command == "trace":
        command = args.trace_command
        out = args.out
    if out is not None:
        # fail before the (possibly minutes-long) run, not at write time
        parent = os.path.dirname(os.path.abspath(out))
        if not os.path.isdir(parent):
            parser.error(f"--trace/--out: directory {parent!r} does not "
                         f"exist")
    plan_name = getattr(args, "fault_plan", None)
    if plan_name is not None and getattr(args, "record", False):
        # The trajectory files feed the regression harness; an epoch
        # whose NSPS carries injected backoff/replay cost would poison
        # every later comparison against it.
        parser.error("--record cannot be combined with --fault-plan: "
                     "faulted-epoch NSPS must not enter the "
                     "benchmarks/BENCH_*.json trajectory")

    def run() -> None:
        if args.command == "trace" and command != "validate":
            # `repro trace SUITE` is `repro bench SUITE` under the tracer
            _run_bench_suite(command, args, n=args.particles)
        else:
            _COMMANDS[command](args)

    def dispatch() -> None:
        if out is not None:
            _run_traced(run, out)
        else:
            run()

    from .errors import ReproError
    try:
        if plan_name is not None and command not in ("faults", "push",
                                                     "serve", "submit"):
            # faults installs its own injector from --fault-plan
            # (default: the 'default' plan); push routes
            # --fault-plan through RunConfig (it selects resilient
            # mode); serve/submit scope injection to per-job injectors
            from .resilience import fault_injection, named_plan
            with fault_injection(named_plan(plan_name),
                                 seed=getattr(args, "fault_seed", 0)):
                dispatch()
        else:
            dispatch()
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
