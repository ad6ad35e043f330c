"""Command-line interface: ``python -m repro <command>``.

The PR-ESP experience from a shell — the "single make target" plus the
evaluation entry points:

* ``designs``              list the paper's SoCs with metrics and class
* ``build CONFIG``         run the DPR flow, print the full report
* ``sweep CONFIG...``      batch-build configs x strategies via the build service
* ``compare CONFIG``       PR-ESP vs the monolithic baseline (Table V row)
* ``deploy CONFIG``        run WAMI on a built SoC (Fig. 4 methodology)
* ``monitor CONFIG``       deploy with the health monitor attached
* ``dashboard CONFIG``     deploy with full request telemetry: SLO/error
                           budgets plus Prometheus exposition
* ``bench-diff``           compare BENCH_*.json summaries against baselines
* ``profile TARGET``       call-path profile of a Fig. 4 workload, or the
                           Fig. 3-style profile of one WAMI accelerator
* ``profile-diff``         compare PROFILE_*.json hot paths against baselines
* ``model``                show the calibrated CAD-runtime curves
* ``serve``                run the multi-tenant build/deploy service daemon
* ``jobs``                 submit/list/status/cancel/result against a daemon

``CONFIG`` is either a paper design name (soc_1..soc_4, soc_a..soc_d,
soc_x/y/z) or a path to an ``.esp_config`` file.

Every ``--json`` payload is wrapped in the same versioned envelope the
service API speaks: ``schema_version`` + ``kind`` at the top level,
the command's payload splatted alongside.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys
from pathlib import Path
from typing import Optional

from repro import api
from repro.core.designs import (
    paper_designs,
    resolve_config,
    wami_deployment_socs,
)
from repro.core.metrics import compute_metrics
from repro.core.strategy import ImplementationStrategy, choose_strategy
from repro.errors import PrEspError
from repro.flow.batch import BuildRequest
from repro.flow.cache import FlowCache
from repro.flow.options import BuildOptions
from repro.obs.instrumentation import Instrumentation
from repro.flow.report import comparison_report, flow_report
from repro.obs.baseline import (
    BENCH,
    PROFILE,
    compare_directories,
    find_files,
    write_baseline,
)
from repro.obs.context import RequestIdFactory
from repro.obs.events import EventBus
from repro.obs.export import (
    metrics_lines,
    write_chrome_trace,
    write_prometheus_text,
)
from repro.obs.logconfig import (
    LEVELS,
    configure_logging,
    level_from_verbosity,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import (
    Profiler,
    profile_document,
    profile_path,
    self_host_total,
    self_time_shares,
    write_profile,
)
from repro.obs.recorder import Recorder
from repro.service.schema import envelope
from repro.obs.tsdb import TelemetryStore
from repro.runtime.faults import (
    NO_RUNTIME_FAULTS,
    PERSISTENT,
    RuntimeFaultKind,
    RuntimeFaultModel,
    RuntimeFaultOptions,
)
from repro.service.faults import NO_SERVICE_FAULTS, ServiceFaultKind, ServiceFaultModel
from repro.soc.validation import check_design
from repro.vivado.faults import NO_FAULTS, CadFaultModel
from repro.vivado.runtime_model import CALIBRATED_MODEL, JobKind
from repro.wami.graph import WamiStage


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_designs(_args) -> int:
    print(f"{'name':8s} {'grid':>5s} {'tiles':>6s} {'metrics':40s} {'class':>6s} {'strategy':>15s}")
    for name, config in paper_designs().items():
        metrics = compute_metrics(config)
        decision = choose_strategy(
            metrics, estimator=CALIBRATED_MODEL.strategy_estimator()
        )
        print(
            f"{name:8s} {config.rows}x{config.cols:<3d} "
            f"{len(config.reconfigurable_tiles):>6d} {metrics.summary():40s} "
            f"{decision.design_class.value:>6s} {decision.strategy.value:>15s}"
        )
    return 0


def cache_from_args(args) -> Optional[FlowCache]:
    """The build cache a command asked for, or None.

    The CLI is a one-shot process, so ``--cache`` means the persistent
    disk tier (``--cache-dir`` or ``~/.cache/repro-flow``) — an
    in-memory-only cache would never survive to the next invocation.
    """
    if not getattr(args, "cache", False):
        return None
    return FlowCache(disk_dir=args.cache_dir or True)


def _count(spec: str, parts: list, default: int) -> int:
    """The optional trailing ``:N`` of an ``--inject`` spec."""
    if not parts:
        return default
    try:
        return int(parts[0])
    except ValueError:
        raise PrEspError(f"bad --inject count in {spec!r}; expected an integer") from None


def _arm_cad(model: CadFaultModel, spec: str, parts: list, config) -> None:
    if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
        raise PrEspError(f"bad --inject {spec!r}; expected cad:STAGE:JOB[:N]")
    model.inject_fault(parts[0], parts[1], count=_count(spec, parts[2:], 1))


def _arm_runtime(model: RuntimeFaultModel, spec: str, parts: list, config) -> None:
    kinds = {k.value: k for k in RuntimeFaultKind}
    if not 2 <= len(parts) <= 4 or not parts[0] or not parts[1]:
        raise PrEspError(
            f"bad --inject {spec!r}; expected runtime:TILE:MODE[:KIND[:N]]"
        )
    kind = parts[2] if len(parts) > 2 else RuntimeFaultKind.BITSTREAM_CORRUPTION.value
    if kind not in kinds:
        raise PrEspError(
            f"bad --inject kind in {spec!r}; choose from " + ", ".join(sorted(kinds))
        )
    # An injection on a tile or mode the design lacks would never fire.
    modes = {tile.name: tile.mode_names() for tile in config.reconfigurable_tiles}
    if parts[0] not in modes:
        raise PrEspError(
            f"bad --inject tile in {spec!r}; {config.name} has the "
            "reconfigurable tiles " + ", ".join(modes)
        )
    if parts[1] not in modes[parts[0]]:
        raise PrEspError(
            f"bad --inject mode in {spec!r}; {parts[0]} loads "
            + ", ".join(modes[parts[0]])
        )
    model.inject(
        parts[0], parts[1], kinds[kind], count=_count(spec, parts[3:], PERSISTENT)
    )


def _arm_service(model: ServiceFaultModel, spec: str, parts: list, config) -> None:
    kinds = {k.value: k for k in ServiceFaultKind}
    if len(parts) not in (1, 2) or parts[0] not in kinds:
        raise PrEspError(
            f"bad --inject {spec!r}; expected service:KIND[:N] with KIND one of "
            + ", ".join(sorted(kinds))
        )
    model.inject(kinds[parts[0]], count=_count(spec, parts[1:], 1))


#: The fault tiers ``--fault``/``--inject`` address: the tier's model
#: class, its shared null model, and how an ``--inject`` target arms it
#: (given the design the command runs, or None).
FAULT_TIERS = {
    "cad": (CadFaultModel, NO_FAULTS, _arm_cad),
    "runtime": (RuntimeFaultModel, NO_RUNTIME_FAULTS, _arm_runtime),
    "service": (ServiceFaultModel, NO_SERVICE_FAULTS, _arm_service),
}

_FAULT_SPEC = re.compile(
    r"(?P<tier>[a-z]+)(?::(?P<kind>[a-z_]+))?=(?P<rate>[^@]+)(?:@(?P<seed>\d+))?"
)


def fault_model(args, config=None):
    """The fault model the ``--fault``/``--inject`` flags ask for.

    ``--fault TIER[:KIND]=RATE[@SEED]`` sets a per-attempt failure rate
    (every kind of the tier without ``:KIND``) and the tier's seed;
    ``--inject TIER:TARGET[:N]`` arms targeted faults. Every flag must
    name the tier the subcommand runs (``args.fault_tier``); a runtime
    target must name a reconfigurable tile of ``config`` and a mode it
    loads. With no positive rate and no injection the tier's shared
    null model is used.
    """
    tier = args.fault_tier
    model_class, null_model, arm = FAULT_TIERS[tier]
    kinds = {kind.value: kind for kind in model_class.kinds}
    seed, rates, injections = None, {}, []
    specs = [("--fault", spec) for spec in args.fault or []]
    specs += [("--inject", spec) for spec in args.inject or []]
    for flag, spec in specs:
        name = re.split("[:=]", spec, maxsplit=1)[0]
        if name != tier:
            raise PrEspError(
                f"bad {flag} {spec!r}; this command runs the {tier} fault tier"
            )
        if flag == "--inject":
            injections.append((spec, spec.split(":")[1:]))
            continue
        match = _FAULT_SPEC.fullmatch(spec)
        try:
            rate = float(match["rate"])  # TypeError: the spec did not match
        except (TypeError, ValueError):
            raise PrEspError(
                f"bad --fault {spec!r}; expected TIER[:KIND]=RATE[@SEED]"
            ) from None
        if match["kind"] and match["kind"] not in kinds:
            raise PrEspError(
                f"bad --fault kind in {spec!r}; choose from "
                + ", ".join(sorted(kinds))
            )
        if match["seed"] is not None:
            if seed not in (None, int(match["seed"])):
                raise PrEspError(f"bad --fault {spec!r}; conflicting {tier} seeds")
            seed = int(match["seed"])
        for kind in [kinds[match["kind"]]] if match["kind"] else kinds.values():
            rates[kind] = rate
    rates = {kind: rate for kind, rate in rates.items() if rate != 0.0}
    if not rates and not injections:
        return null_model
    try:
        model = model_class(seed=seed or 0, rates=rates)
    except PrEspError as error:
        raise PrEspError(f"bad --fault for the {tier} tier: {error}") from None
    for spec, parts in injections:
        arm(model, spec, parts, config)
    return model


def recorder_from_args(args) -> Optional[Recorder]:
    """The recorder ``--trace``/``--profile`` ask for, or None."""
    if not (args.trace or args.profile):
        return None
    return Recorder(trace=bool(args.trace), profile=bool(args.profile))


def write_observations(args, recorder: Optional[Recorder], experiment: str) -> None:
    """Write the ``--trace`` file and the ``--profile`` document.

    With both flags the profile document also rides in the trace's
    ``metadata.profile``.
    """
    document = profile_document(recorder, experiment) if args.profile else None
    if args.trace:
        write_chrome_trace(args.trace, recorder, profile=document)
    if args.profile:
        write_profile(args.profile, document)


def cmd_build(args) -> int:
    config = resolve_config(args.config)
    strategy = (
        ImplementationStrategy(args.strategy) if args.strategy else None
    )
    options = BuildOptions(
        cache=cache_from_args(args),
        faults=fault_model(args),
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    recorder = recorder_from_args(args)
    platform = api.platform(
        options=options,
        instrumentation=Instrumentation(recorder),
        compress_bitstreams=not args.no_compress,
    )
    result = api.build(
        config,
        strategy=strategy,
        with_baseline=args.baseline,
        platform=platform,
    )
    write_observations(args, recorder, f"build_{config.name}")
    if getattr(args, "json", False):
        print(
            json.dumps(
                envelope("build", result.flow.to_summary_dict()), indent=2
            )
        )
        return 0
    print(flow_report(result.flow))
    if result.cached:
        print("\n(served from the flow cache)")
    if result.flow.resumed_stages:
        print(
            f"\n(resumed {len(result.flow.resumed_stages)} checkpointed "
            f"stage(s): {', '.join(result.flow.resumed_stages)})"
        )
    if result.baseline is not None:
        print()
        print(comparison_report(result.flow, result.baseline))
    if args.trace:
        print(f"\ntrace written to {args.trace}")
    if args.profile:
        print(f"\nprofile written to {args.profile}")
    return 0


def cmd_sweep(args) -> int:
    configs = [resolve_config(spec) for spec in args.configs]
    if args.strategies == "all":
        strategies = [None] + [s for s in ImplementationStrategy]
    elif args.strategies == "auto":
        strategies = [None]
    else:
        try:
            strategies = [
                ImplementationStrategy(name)
                for name in args.strategies.split(",")
                if name
            ]
        except ValueError:
            raise PrEspError(
                f"unknown strategy in {args.strategies!r}; choose from "
                + ", ".join(s.value for s in ImplementationStrategy)
                + ", or use 'auto'/'all'"
            ) from None
        if not strategies:
            raise PrEspError(
                f"--strategies {args.strategies!r} names no strategy"
            )
    requests = [
        BuildRequest(config=config, strategy_override=strategy)
        for config in configs
        for strategy in strategies
    ]
    cache = cache_from_args(args)
    platform = api.platform(options=BuildOptions(cache=cache, jobs=args.jobs))
    outcomes = api.build_many(requests, platform=platform)
    if args.json:
        rows = []
        for outcome in outcomes:
            row = {
                "request": outcome.request.label,
                "ok": outcome.ok,
                "cached": outcome.cached,
                "elapsed_s": outcome.elapsed_s,
            }
            if outcome.result is not None:
                row["summary"] = outcome.result.to_summary_dict()
            if outcome.error is not None:
                row["error"] = {
                    "kind": outcome.error.kind,
                    "message": outcome.error.message,
                }
            rows.append(row)
        print(json.dumps(envelope("sweep", {"outcomes": rows}), indent=2))
    else:
        print(
            f"{'request':28s} {'status':>8s} {'strategy':>15s} "
            f"{'total min':>10s} {'crit min':>9s}"
        )
        for outcome in outcomes:
            if outcome.ok:
                flow = outcome.result
                status = "cached" if outcome.cached else "built"
                omega = (
                    "-"
                    if flow.max_omega_minutes is None
                    else f"{flow.max_omega_minutes:.1f}"
                )
                print(
                    f"{outcome.request.label:28s} {status:>8s} "
                    f"{flow.strategy.value:>15s} {flow.total_minutes:>10.1f} "
                    f"{omega:>9s}"
                )
            else:
                print(
                    f"{outcome.request.label:28s} {'FAILED':>8s}  {outcome.error}"
                )
        if cache is not None:
            stats = cache.stats()
            print(
                f"\ncache: {stats['hits_memory'] + stats['hits_disk']} hits, "
                f"{stats['misses']} misses"
            )
    return 0 if all(outcome.ok for outcome in outcomes) else 1


def cmd_compare(args) -> int:
    config = resolve_config(args.config)
    presp, mono = api.compare(config)
    print(comparison_report(presp, mono))
    return 0


def cmd_deploy(args) -> int:
    config = resolve_config(args.config)
    want_metrics = args.metrics or args.json
    recorder = recorder_from_args(args)
    registry = MetricsRegistry() if want_metrics else None
    report = api.deploy(
        config,
        frames=args.frames,
        instrumentation=Instrumentation(recorder, metrics=registry),
        runtime_options=RuntimeFaultOptions(faults=fault_model(args, config)),
    )
    write_observations(args, recorder, f"deploy_{config.name}")
    if args.json:
        print(
            json.dumps(
                envelope("deploy", report.to_summary_dict(registry.snapshot())),
                indent=2,
            )
        )
        return 0
    print(f"{config.name}: {report.frames} frames")
    print(f"  frame latency : {report.seconds_per_frame * 1000:.1f} ms")
    print(f"  energy/frame  : {report.joules_per_frame:.3f} J")
    print(f"  average power : {report.energy.average_power_w:.2f} W")
    print(f"  reconfigs     : {report.reconfigurations}")
    software = ", ".join(s.kernel_name for s in report.software_stages) or "none"
    print(f"  software      : {software}")
    if report.runtime_stats is not None:
        print("runtime stats:")
        for line in report.runtime_stats.summary_lines():
            print(f"  {line}")
    if args.metrics:
        print("metrics:")
        for line in metrics_lines(registry):
            print(f"  {line}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.profile:
        print(f"profile written to {args.profile}")
    return 0


def cmd_monitor(args) -> int:
    config = resolve_config(args.config)
    registry = MetricsRegistry()
    report, health, bus = api.monitor(
        config,
        frames=args.frames,
        reconfig_deadline_s=args.deadline,
        window_s=args.window,
        failure_rate_degraded=args.failure_rate_degraded,
        failure_rate_critical=args.failure_rate_critical,
        queue_depth_degraded=args.queue_depth_degraded,
        runtime_options=RuntimeFaultOptions(faults=fault_model(args, config)),
        instrumentation=Instrumentation(metrics=registry),
    )
    if args.json:
        payload = health.to_dict()
        payload["slo"] = health.slo.to_dict()
        payload["verdict"] = health.overall.value
        payload["deploy"] = {
            "config": config.name,
            "frames": report.frames,
            "seconds_per_frame": report.seconds_per_frame,
            "reconfigurations": report.reconfigurations,
        }
        payload["events"] = [
            {
                "seq": event.seq,
                "kind": event.kind,
                "time": event.time,
                "source": event.source,
                "attrs": dict(event.attrs),
            }
            for event in bus.last(args.events)
        ]
        print(json.dumps(envelope("monitor", payload), indent=2))
        return health.overall.exit_code
    print(f"{config.name}: {report.frames} frames, "
          f"{report.reconfigurations} reconfigurations")
    print(f"  frame latency : {report.seconds_per_frame * 1000:.1f} ms")
    print()
    for line in health.summary_lines():
        print(line)
    print()
    for line in health.slo.summary_lines():
        print(line)
    if args.events:
        shown = bus.last(args.events)
        print()
        print(f"recent events ({len(shown)} of {len(bus)} buffered, "
              f"{bus.dropped} dropped):")
        for event in shown:
            print(f"  {event}")
    return health.overall.exit_code


def cmd_dashboard(args) -> int:
    config = resolve_config(args.config)
    faults = fault_model(args, config)
    registry = MetricsRegistry()
    bus = EventBus()
    factory = RequestIdFactory(seed=args.seed, tenant=args.tenant)
    store = TelemetryStore()
    plat = api.platform(
        request_ids=factory,
        instrumentation=Instrumentation(metrics=registry, events=bus),
    )
    built = plat.build(config)
    # Attach the sampler only now: the flow's events ride the modelled
    # CAD-minute clock while the deployment's ride DES seconds, and
    # sampling just the runtime stream keeps the store's timeline
    # monotonic from t=0 (the flow counters are already in the
    # registry, so every sample still carries them).
    store.attach(bus, registry, interval=args.interval)
    report, health, bus = api.monitor(
        config,
        frames=args.frames,
        flow_result=built.flow,
        runtime_options=RuntimeFaultOptions(faults=faults),
        platform=plat,
        telemetry=store,
        slo_window_s=args.window,
    )
    if args.prom:
        write_prometheus_text(args.prom, registry)
    if args.json:
        payload = {
            "soc": config.name,
            "frames": report.frames,
            "verdict": health.overall.value,
            "requests": {"minted": factory.minted, "tenant": factory.tenant},
            "health": health.to_dict(),
            "slo": health.slo.to_dict(),
            "store": store.to_dict(),
        }
        if args.follow:
            payload["replay"] = health.slo.replay()
        print(json.dumps(envelope("dashboard", payload), indent=2))
        return health.overall.exit_code
    print(f"{config.name}: {report.frames} frames, "
          f"{report.reconfigurations} reconfigurations")
    print(f"  requests      : {factory.minted} minted (tenant {factory.tenant})")
    print(f"  samples       : {store.recorded} recorded, {store.dropped} dropped")
    if args.follow:
        print()
        print("replay:")
        last = None
        for frame in health.slo.replay():
            stamp = frame["verdict"].upper()
            burns = " ".join(
                f"{name}={burn:.0%}" for name, burn in frame["burn"].items()
            )
            marker = "  <-- verdict change" if last is not None and stamp != last else ""
            print(f"  t={frame['time']:10.4f}s  {stamp:8s} {burns}{marker}")
            last = stamp
    print()
    for line in health.summary_lines():
        print(line)
    print()
    for line in health.slo.summary_lines():
        print(line)
    print()
    print(f"overall       : {health.overall.value.upper()}")
    if args.prom:
        print(f"prometheus exposition written to {args.prom}")
    return health.overall.exit_code


def cmd_baseline_diff(args) -> int:
    """``bench-diff`` / ``profile-diff``: gate result files on baselines."""
    gate = args.gate
    if args.update:
        produced = find_files(args.results_dir, gate.prefix)
        if not produced:
            print(
                f"error: no {args.results_dir}/{gate.prefix}*.json files to "
                "seed baselines from",
                file=sys.stderr,
            )
            return 1
        for path in produced.values():
            baseline = gate.seed(*gate.read(path))
            written = write_baseline(args.baselines_dir, baseline)
            print(f"seeded {written} ({len(baseline.entries)} metrics)")
        return 0
    if not find_files(args.baselines_dir):
        print(
            f"error: no baselines under {args.baselines_dir} "
            f"(seed them with: repro {args.command} --update)",
            file=sys.stderr,
        )
        return 1
    results = compare_directories(gate, args.results_dir, args.baselines_dir)
    failed = [r for r in results if not r.ok]
    if getattr(args, "json", False):
        payload = {
            "ok": not failed,
            "experiments": [
                {
                    "experiment": result.experiment,
                    "ok": result.ok,
                    "missing_summary": result.missing,
                    "deltas": [
                        {
                            "name": delta.name,
                            "baseline": delta.baseline,
                            "current": delta.current,
                            "tolerance": delta.tolerance,
                            "direction": "both",
                            "status": delta.status,
                        }
                        for delta in result.deltas
                    ],
                }
                for result in results
            ],
        }
        print(json.dumps(envelope("bench_diff", payload), indent=2))
        return 1 if failed else 0
    for result in results:
        for line in result.summary_lines(gate):
            print(line)
    print(
        f"\n{len(results) - len(failed)}/{len(results)} {gate.files} in band"
        + (f", {len(failed)} FAILED" if failed else "")
    )
    return 1 if failed else 0


#: Call-path-profiled workloads: name -> (deployment SoCs, default frames).
PROFILE_WORKLOADS = {
    "fig4_wami_runtime": (("soc_x", "soc_y", "soc_z"), 8),
    "fig4_smoke": (("soc_y",), 2),
}


def _cmd_profile_workload(args) -> int:
    """Run one Fig. 4 workload under the hierarchical profiler."""
    soc_names, default_frames = PROFILE_WORKLOADS[args.target]
    frames = args.frames if args.frames else default_frames
    profiler = Profiler()
    platform = api.platform(instrumentation=Instrumentation(profiler=profiler))
    socs = wami_deployment_socs()
    # The workloads finish in tens of milliseconds, so a gen-2
    # collection landing inside the window dwarfs the paths it
    # interrupts (the pause is charged to whichever frame happened to
    # allocate). Start the window from a collected heap with the
    # collector paused so the attribution gate compares real shares.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name in soc_names:
            api.deploy(socs[name], frames=frames, platform=platform)
    finally:
        if gc_was_enabled:
            gc.enable()
    document = profile_document(profiler, args.target)
    json_path, collapsed_path = write_profile(
        profile_path(args.out, args.target),
        document,
        Path(args.out) / f"{args.target}.collapsed",
    )
    if args.json:
        print(json.dumps(envelope("profile", document), indent=2))
        return 0
    total = document["total_host_s"]
    self_total = self_host_total(document)
    print(f"{args.target}: {len(soc_names)} deployment(s) x {frames} frames")
    print(
        f"  host time      : {total * 1000:.1f} ms "
        f"(simulated {document['total_sim_s']:.1f} s)"
    )
    shares = self_time_shares(document)
    top = sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))[: args.top]
    print(f"  top {len(top)} hot paths by host self-time share:")
    for path, share in top:
        print(f"    {share:6.1%}  {path}")
    drift = abs(self_total - total) / total if total else 0.0
    print(
        f"  reconciliation : self-time sum {self_total * 1000:.1f} ms vs "
        f"root inclusive {total * 1000:.1f} ms ({drift:.4%} drift)"
    )
    print(f"  profile        : {json_path}")
    print(f"  flamegraph     : {collapsed_path} (collapsed stacks)")
    return 0


def cmd_profile(args) -> int:
    if args.target in PROFILE_WORKLOADS:
        return _cmd_profile_workload(args)
    try:
        stage = WamiStage[args.target.upper()]
    except KeyError:
        try:
            stage = WamiStage.from_index(int(args.target))
        except (ValueError, PrEspError):
            raise PrEspError(
                f"unknown profile target {args.target!r}; use a workload "
                f"({', '.join(sorted(PROFILE_WORKLOADS))}), a WAMI stage name "
                f"({', '.join(s.kernel_name for s in WamiStage)}), or an "
                "index 1..12"
            ) from None
    profile = api.platform().profile_wami(stage)
    print(f"stage {stage.value}: {stage.kernel_name}")
    print(f"  LUTs            : {profile.luts}")
    print(f"  execution time  : {profile.exec_time_s * 1000:.1f} ms/frame")
    print(f"  partial bits.   : {profile.partial_bitstream_kib:.0f} KB (compressed)")
    print(f"  region          : {profile.region_kluts:.1f} kLUTs")
    return 0


def cmd_check(args) -> int:
    config = resolve_config(args.config)
    findings = check_design(config)
    if not findings:
        print(f"{config.name}: no advisory findings")
        return 0
    for finding in findings:
        print(f"[{finding.severity.value:7s}] {finding.rule}: {finding.message}")
    return 0


def parse_quotas(specs) -> dict:
    """``TENANT=QUEUED[:ACTIVE]`` flags -> {tenant: TenantQuota}."""
    from repro.service.queue import TenantQuota

    quotas = {}
    for spec in specs or []:
        tenant, sep, limits = spec.partition("=")
        parts = limits.split(":") if limits else []
        if not sep or not tenant or len(parts) not in (1, 2):
            raise PrEspError(
                f"bad --quota {spec!r}; expected TENANT=QUEUED[:ACTIVE]"
            )
        try:
            max_queued = int(parts[0]) if parts[0] else None
            max_active = (
                int(parts[1]) if len(parts) == 2 and parts[1] else None
            )
        except ValueError:
            raise PrEspError(
                f"bad --quota limits in {spec!r}; expected integers"
            ) from None
        quotas[tenant] = TenantQuota(max_queued=max_queued, max_active=max_active)
    return quotas


def parse_tenant_deadlines(specs) -> dict:
    """``TENANT=SECONDS`` flags -> {tenant: deadline_s}."""
    deadlines = {}
    for spec in specs or []:
        tenant, sep, value = spec.partition("=")
        if not sep or not tenant:
            raise PrEspError(
                f"bad --tenant-deadline {spec!r}; expected TENANT=SECONDS"
            )
        try:
            deadlines[tenant] = float(value)
        except ValueError:
            raise PrEspError(
                f"bad --tenant-deadline seconds in {spec!r}; expected a number"
            ) from None
    return deadlines


def cmd_serve(args) -> int:
    from repro.service.breaker import BreakerPolicy
    from repro.service.daemon import BuildService, ServiceConfig
    from repro.service.queue import TenantQuota

    config = ServiceConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        jobs=args.jobs,
        seed=args.seed,
        queue_capacity=args.queue_capacity,
        quotas=parse_quotas(args.quota),
        default_quota=TenantQuota(
            max_queued=args.max_queued, max_active=args.max_active
        ),
        faults=fault_model(args),
        default_deadline_s=args.deadline,
        tenant_deadlines=parse_tenant_deadlines(args.tenant_deadline),
        default_max_attempts=args.max_attempts,
        breaker=BreakerPolicy(
            window=args.breaker_window,
            min_samples=args.breaker_min_samples,
            threshold=args.breaker_threshold,
            cooldown_s=args.breaker_cooldown,
            probes=args.breaker_probes,
        ),
        drain_s=args.drain_timeout,
    )
    service = BuildService(config)
    service.start()
    # The parent (smoke scripts, curl loops) keys off this line.
    print(f"service listening on {service.url} (state in {args.state_dir})")
    sys.stdout.flush()
    try:
        service.serve_forever()
    finally:
        print("service stopped")
    return 0


def _jobs_client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(host=args.host, port=args.port, timeout=args.timeout)


def _print_job_line(record: dict) -> None:
    print(
        f"{record['job_id']:20s} {record['state']:>9s} "
        f"{record['spec']['tenant']:>10s} p{record['spec']['priority']:<3d} "
        f"{record['spec']['kind']:>6s} {record['spec']['config']}"
    )


def cmd_jobs_submit(args) -> int:
    document = _jobs_client(args).submit(
        args.config,
        kind=args.kind,
        tenant=args.tenant,
        priority=args.priority,
        strategy=args.strategy,
        frames=args.frames,
        deadline_s=args.deadline,
        max_attempts=args.max_attempts,
    )
    if args.json:
        print(json.dumps(document, indent=2))
        return 0
    print(f"submitted {document['job_id']} ({document['state']})")
    return 0


def cmd_jobs_list(args) -> int:
    document = _jobs_client(args).jobs(tenant=args.tenant, state=args.state)
    if args.json:
        print(json.dumps(document, indent=2))
        return 0
    queue = document["queue"]
    print(
        f"{len(document['jobs'])} job(s), queue depth {queue['queued']}, "
        f"{queue['admitted']} admitted / {queue['rejected']} rejected"
    )
    for record in document["jobs"]:
        _print_job_line(record)
    return 0


def cmd_jobs_status(args) -> int:
    document = _jobs_client(args).status(args.job_id)
    if args.json:
        print(json.dumps(document, indent=2))
        return 0
    _print_job_line(document)
    return 0


def cmd_jobs_cancel(args) -> int:
    document = _jobs_client(args).cancel(args.job_id)
    if args.json:
        print(json.dumps(document, indent=2))
        return 0
    if document["state"] == "cancelled":
        print(f"{document['job_id']} cancelled")
    elif document["cancel_requested"]:
        print(f"{document['job_id']} is running; cancellation requested")
    else:
        print(f"{document['job_id']} already {document['state']}")
    return 0


def cmd_jobs_requeue(args) -> int:
    document = _jobs_client(args).requeue(args.job_id)
    if args.json:
        print(json.dumps(document, indent=2))
        return 0
    print(f"{document['job_id']} requeued ({document['state']})")
    return 0


def cmd_jobs_result(args) -> int:
    client = _jobs_client(args)
    if args.wait:
        client.wait(args.job_id, timeout=args.wait_timeout)
    document = client.result(args.job_id)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(f"{document['job_id']}: {document['state']}"
              + (" (cached)" if document["cached"] else ""))
        if document["result"] is not None:
            print(json.dumps(document["result"], indent=2))
        if document["error"] is not None:
            print(f"error: {document['error']}")
    return 0 if document["state"] == "succeeded" else 1


def cmd_model(_args) -> int:
    print("calibrated CAD-runtime curves: t(L) = c + a * L^p  (minutes, kLUT)")
    for kind in JobKind:
        curve = CALIBRATED_MODEL.curves[kind]
        print(
            f"  {kind.value:16s} c={curve.c:8.3f}  a={curve.a:9.5f}  p={curve.p:6.3f}"
        )
    print(f"  serial reconfigurable-LUT weight: {CALIBRATED_MODEL.reconf_weight}")
    return 0


# ----------------------------------------------------------------------
_INJECT_TARGETS = {
    "cad": "cad:STAGE:JOB[:N], N defaulting to 1",
    "runtime": (
        "runtime:TILE:MODE[:KIND[:N]], KIND crc (default)/stuck/hang, "
        "every attempt failing when N is omitted"
    ),
    "service": "service:KIND[:N], KIND crash/slow/io/torn, N defaulting to 1",
}


def _add_fault_options(command: argparse.ArgumentParser, tier: str) -> None:
    """``--fault``/``--inject`` for a subcommand that runs the ``tier`` tier."""
    command.set_defaults(fault_tier=tier)
    command.add_argument(
        "--fault",
        action="append",
        metavar="TIER[:KIND]=RATE[@SEED]",
        help=(
            f"seeded per-attempt failure rate for the {tier} tier; without "
            "KIND it applies to every kind; repeatable"
        ),
    )
    command.add_argument(
        "--inject",
        action="append",
        metavar="TIER:TARGET[:N]",
        help="arm N targeted faults: " + _INJECT_TARGETS[tier] + "; repeatable",
    )


def _non_negative(text: str) -> int:
    """argparse type: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_cache_options(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="reuse flow results from the persistent cache (--no-cache off)",
    )
    command.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="cache directory (default: ~/.cache/repro-flow)",
    )


def _add_gate_parser(sub, name, gate, baselines_dir, **kwargs):
    """One baseline-gate verb; they differ only in the gated files."""
    parser = sub.add_parser(name, **kwargs)
    parser.add_argument(
        "--results-dir",
        default="benchmarks/results",
        metavar="PATH",
        help=f"directory holding the {gate.prefix}*.json result files",
    )
    parser.add_argument(
        "--baselines-dir",
        default=baselines_dir,
        metavar="PATH",
        help="directory of committed baseline files",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="seed/overwrite baselines from the current result files instead",
    )
    parser.set_defaults(func=cmd_baseline_diff, gate=gate)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PR-ESP reproduction: partially reconfigurable SoC design flow",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise log verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "--log-level",
        choices=LEVELS,
        help="explicit log level (overrides -v)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("designs", help="list the paper's SoC designs").set_defaults(
        func=cmd_designs
    )

    build = sub.add_parser("build", help="run the PR-ESP flow on an SoC")
    build.add_argument("config", help="design name or esp_config path")
    build.add_argument(
        "--strategy",
        choices=[s.value for s in ImplementationStrategy],
        help="force a P&R strategy instead of the size-driven choice",
    )
    build.add_argument("--baseline", action="store_true", help="also run the monolithic flow")
    build.add_argument("--no-compress", action="store_true", help="disable bitstream compression")
    build.add_argument("--json", action="store_true", help="emit a JSON summary instead of the report")
    build.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace-event file of the flow (CAD minutes)",
    )
    build.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        help="checkpoint each completed flow stage into PATH",
    )
    build.add_argument(
        "--resume",
        action="store_true",
        help="restore completed stages from --checkpoint-dir before building",
    )
    build.add_argument(
        "--profile",
        metavar="PATH",
        help=(
            "write a call-path profile of the build to PATH (JSON tree "
            "plus a sibling .collapsed flamegraph input)"
        ),
    )
    _add_cache_options(build)
    _add_fault_options(build, "cad")
    build.set_defaults(func=cmd_build)

    sweep = sub.add_parser(
        "sweep", help="batch-build configs x strategies via the build service"
    )
    sweep.add_argument(
        "configs", nargs="+", help="design names or esp_config paths"
    )
    sweep.add_argument(
        "--strategies",
        default="auto",
        help=(
            "'auto' (size-driven choice), 'all' (auto + every strategy), or a "
            "comma list of "
            + "/".join(s.value for s in ImplementationStrategy)
        ),
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for builds the cache cannot serve",
    )
    sweep.add_argument(
        "--json", action="store_true", help="emit per-request JSON rows"
    )
    _add_cache_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    compare = sub.add_parser("compare", help="PR-ESP vs the monolithic baseline")
    compare.add_argument("config", help="design name or esp_config path")
    compare.set_defaults(func=cmd_compare)

    deploy = sub.add_parser("deploy", help="run WAMI on a built SoC")
    deploy.add_argument("config", help="design name or esp_config path")
    deploy.add_argument("--frames", type=int, default=4)
    deploy.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace-event file of the run (simulated seconds)",
    )
    deploy.add_argument(
        "--metrics", action="store_true", help="print the metrics registry snapshot"
    )
    deploy.add_argument(
        "--json",
        action="store_true",
        help="emit the deployment report plus metrics as JSON",
    )
    deploy.add_argument(
        "--profile",
        metavar="PATH",
        help=(
            "write a call-path profile of the deployment to PATH (JSON "
            "tree plus a sibling .collapsed flamegraph input)"
        ),
    )
    _add_fault_options(deploy, "runtime")
    deploy.set_defaults(func=cmd_deploy)

    monitor = sub.add_parser(
        "monitor",
        help="deploy WAMI with the health monitor attached",
        description=(
            "Run a WAMI deployment with the event bus and health monitor "
            "wired in, then print the health dashboard. The judge folds the "
            "watchdog rules and the SLOs over one end-of-run metrics "
            "snapshot (where an SLO counts as degraded at most) into the "
            "exit code: 0 ok, 1 degraded, 2 critical."
        ),
    )
    monitor.add_argument("config", help="design name or esp_config path")
    monitor.add_argument("--frames", type=int, default=4)
    monitor.add_argument(
        "--deadline",
        type=float,
        default=1.0,
        metavar="S",
        help="stuck-reconfiguration deadline in simulated seconds",
    )
    monitor.add_argument(
        "--window",
        type=float,
        default=60.0,
        metavar="S",
        help="sliding aggregation window in simulated seconds",
    )
    monitor.add_argument(
        "--failure-rate-degraded",
        type=float,
        default=0.05,
        metavar="R",
        help="reconfiguration failure rate that degrades the verdict",
    )
    monitor.add_argument(
        "--failure-rate-critical",
        type=float,
        default=0.5,
        metavar="R",
        help="reconfiguration failure rate that makes the verdict critical",
    )
    monitor.add_argument(
        "--queue-depth-degraded",
        type=int,
        default=4,
        metavar="N",
        help="per-tile lock queue depth that degrades the verdict",
    )
    monitor.add_argument(
        "--events",
        type=_non_negative,
        default=10,
        metavar="N",
        help="show the last N bus events (0 hides them)",
    )
    monitor.add_argument(
        "--json", action="store_true", help="emit the health report as JSON"
    )
    _add_fault_options(monitor, "runtime")
    monitor.set_defaults(func=cmd_monitor)

    dashboard = sub.add_parser(
        "dashboard",
        help="deploy with request telemetry, SLO budgets and a Prometheus page",
        description=(
            "Build and deploy under a request-scoped telemetry context, "
            "sample the metrics registry along the run's event stream "
            "and print the dashboard. One health judge folds the watchdog "
            "rules and the SLO error budgets into the exit code: 0 ok, 1 "
            "degraded, 2 critical."
        ),
    )
    dashboard.add_argument("config", help="design name or esp_config path")
    dashboard.add_argument("--frames", type=int, default=4)
    dashboard.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="request-ID factory seed (fixed seed = identical IDs)",
    )
    dashboard.add_argument(
        "--tenant",
        default="default",
        metavar="NAME",
        help="tenant label stamped on the run's telemetry",
    )
    dashboard.add_argument(
        "--interval",
        type=float,
        default=0.0,
        metavar="S",
        help="minimum simulated seconds between registry samples",
    )
    dashboard.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="S",
        help="SLO evaluation window in simulated seconds (default: all)",
    )
    dashboard.add_argument(
        "--follow",
        action="store_true",
        help="replay the recorded samples as a live-refresh timeline",
    )
    dashboard.add_argument(
        "--prom",
        metavar="PATH",
        help="write the Prometheus text exposition page to PATH",
    )
    dashboard.add_argument(
        "--json", action="store_true", help="emit the dashboard as JSON"
    )
    _add_fault_options(dashboard, "runtime")
    dashboard.set_defaults(func=cmd_dashboard)

    bench_diff = _add_gate_parser(
        sub,
        "bench-diff",
        BENCH,
        "benchmarks/baselines",
        help="compare BENCH_*.json bench summaries against baselines",
        description=(
            "Diff the machine-readable bench summaries against the committed "
            "perf baselines; exits 1 on any out-of-band metric."
        ),
    )
    bench_diff.add_argument(
        "--json",
        action="store_true",
        help="emit the per-experiment judgements as JSON",
    )

    profile = sub.add_parser(
        "profile",
        help="call-path profile of a workload, or a Fig. 3 accelerator profile",
        description=(
            "With a workload target (fig4_wami_runtime, fig4_smoke) run the "
            "Fig. 4 deployment under the deterministic hierarchical profiler "
            "and write PROFILE_<target>.json plus <target>.collapsed "
            "flamegraph input; with a WAMI stage name or index print the "
            "Fig. 3-style accelerator profile."
        ),
    )
    profile.add_argument(
        "target",
        help=(
            "workload (fig4_wami_runtime, fig4_smoke), WAMI stage name, or "
            "stage index 1..12"
        ),
    )
    profile.add_argument(
        "--frames",
        type=int,
        default=0,
        metavar="N",
        help="frames per deployment (default: workload-specific)",
    )
    profile.add_argument(
        "--out",
        default="benchmarks/results",
        metavar="DIR",
        help="directory the profile and collapsed stacks are written into",
    )
    profile.add_argument(
        "--top",
        type=_non_negative,
        default=15,
        metavar="N",
        help="hot paths to show in the text report",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="print the profile document instead of the text report",
    )
    profile.set_defaults(func=cmd_profile)

    _add_gate_parser(
        sub,
        "profile-diff",
        PROFILE,
        "benchmarks/baselines/profiles",
        help="compare PROFILE_*.json hot paths against committed baselines",
        description=(
            "Diff the produced call-path profiles against the committed "
            "hot-path baselines: a baselined path whose host self-time share "
            "drifts beyond its band, a new hotspot above the threshold, or a "
            "missing profile exits 1."
        ),
    )

    check = sub.add_parser("check", help="advisory design-rule check")
    check.add_argument("config", help="design name or esp_config path")
    check.set_defaults(func=cmd_check)

    sub.add_parser("model", help="show the calibrated runtime model").set_defaults(
        func=cmd_model
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant build/deploy service daemon",
        description=(
            "Run the long-lived service daemon: a priority job queue with "
            "per-tenant admission control feeding the warm build pool, a "
            "versioned HTTP/JSON API, and crash-safe job state under "
            "--state-dir (SIGKILL the daemon, restart it on the same "
            "directory, and in-flight jobs resume from their checkpoints)."
        ),
    )
    serve.add_argument(
        "--state-dir",
        required=True,
        metavar="PATH",
        help="durable state: job records, checkpoints, the cache's disk tier",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port (0 binds an ephemeral one)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="supervisor threads draining the job queue",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="warm build pool worker processes",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="job-ID factory seed (fixed seed = identical job IDs)",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        metavar="N",
        help="global bound on queued jobs (default: unbounded)",
    )
    serve.add_argument(
        "--quota",
        action="append",
        metavar="TENANT=QUEUED[:ACTIVE]",
        help="per-tenant admission limits; repeatable",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=None,
        metavar="N",
        help="default per-tenant queued-job limit",
    )
    serve.add_argument(
        "--max-active",
        type=int,
        default=None,
        metavar="N",
        help="default per-tenant queued+running limit",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="default per-attempt watchdog deadline (default: none)",
    )
    serve.add_argument(
        "--tenant-deadline",
        action="append",
        metavar="TENANT=S",
        help="per-tenant attempt deadline; repeatable",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempt budget before a job dead-letters",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="SIGTERM drain deadline before in-flight jobs are requeued",
    )
    serve.add_argument(
        "--breaker-window",
        type=int,
        default=20,
        metavar="N",
        help="outcome window the admission breaker computes over",
    )
    serve.add_argument(
        "--breaker-min-samples",
        type=int,
        default=5,
        metavar="N",
        help="outcomes required before the breaker may open",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=float,
        default=0.5,
        metavar="F",
        help="failure fraction that opens the admission breaker",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="S",
        help="shed period before the breaker probes again",
    )
    serve.add_argument(
        "--breaker-probes",
        type=int,
        default=1,
        metavar="N",
        help="canary jobs a half-open breaker admits",
    )
    _add_fault_options(serve, "service")
    serve.set_defaults(func=cmd_serve)

    jobs = sub.add_parser(
        "jobs",
        help="talk to a running service daemon",
        description=(
            "Submit, list, inspect, cancel and fetch jobs on a running "
            "`repro serve` daemon. Every --json payload is the service "
            "API's versioned envelope, verbatim."
        ),
    )
    jobs.add_argument("--host", default="127.0.0.1")
    jobs.add_argument("--port", type=int, default=8321)
    jobs.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="per-request HTTP timeout",
    )
    jobs.add_argument(
        "--json", action="store_true", help="emit the API envelope as JSON"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    jobs_submit = jobs_sub.add_parser("submit", help="submit one job")
    jobs_submit.add_argument("config", help="design name or esp_config path")
    jobs_submit.add_argument(
        "--kind", choices=["build", "deploy"], default="build"
    )
    jobs_submit.add_argument("--tenant", default="default")
    jobs_submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="higher runs first among queued jobs",
    )
    jobs_submit.add_argument(
        "--strategy",
        choices=[s.value for s in ImplementationStrategy],
        help="force a P&R strategy for build jobs",
    )
    jobs_submit.add_argument(
        "--frames", type=int, default=1, help="WAMI frames for deploy jobs"
    )
    jobs_submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-attempt watchdog deadline for this job",
    )
    jobs_submit.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="attempt budget before this job dead-letters",
    )
    jobs_submit.set_defaults(func=cmd_jobs_submit)

    jobs_list = jobs_sub.add_parser("list", help="list jobs and queue state")
    jobs_list.add_argument("--tenant", help="only this tenant's jobs")
    jobs_list.add_argument(
        "--state",
        choices=["queued", "running", "succeeded", "failed", "cancelled", "dead"],
        help="only jobs in this state",
    )
    jobs_list.set_defaults(func=cmd_jobs_list)

    jobs_status = jobs_sub.add_parser("status", help="one job's record")
    jobs_status.add_argument("job_id")
    jobs_status.set_defaults(func=cmd_jobs_status)

    jobs_cancel = jobs_sub.add_parser("cancel", help="cancel a job")
    jobs_cancel.add_argument("job_id")
    jobs_cancel.set_defaults(func=cmd_jobs_cancel)

    jobs_requeue = jobs_sub.add_parser(
        "requeue", help="revive a dead-lettered job"
    )
    jobs_requeue.add_argument("job_id")
    jobs_requeue.set_defaults(func=cmd_jobs_requeue)

    jobs_result = jobs_sub.add_parser(
        "result", help="a terminal job's result payload"
    )
    jobs_result.add_argument("job_id")
    jobs_result.add_argument(
        "--wait",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="poll until the job is terminal (--no-wait asks once)",
    )
    jobs_result.add_argument(
        "--wait-timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="give up waiting after S seconds",
    )
    jobs_result.set_defaults(func=cmd_jobs_result)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level or level_from_verbosity(args.verbose))
    try:
        return args.func(args)
    except PrEspError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
