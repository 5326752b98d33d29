"""``healers`` — the command-line face of the toolkit.

Mirrors the demonstrations of Section 3 (the paper shows them through a
Web interface; a CLI is the headless equivalent):

* ``healers list-libs``                 — demo 3.1, library browser
* ``healers scan-lib /lib/libc.so.6``   — demo 3.1, function list / XML
* ``healers scan-app /bin/wordcount``   — demo 3.2, application scan
* ``healers inject [--functions …]``    — Fig. 2, fault injection
* ``healers campaign --jobs 4 --resume``— Fig. 2 at scale: parallel,
  cache-backed, resumable injection sweeps
* ``healers derive``                    — Fig. 2, robust API XML
* ``healers derive-checks``             — introspection-derived check
  plans for every wrappable function (full coverage), optionally folding
  in stored campaign verdicts
* ``healers generate security --c``     — Fig. 3, wrapper source
* ``healers profile wordcount``         — demo 3.3, profiling report
* ``healers attack-demo``               — demo 3.4, overflow prevention
* ``healers adversarial --kmax 3``      — scored red-team corpus under
  multi-fault chaos: containment matrix + replayable escapes
* ``healers serve --app kvd``           — serving throughput: drive a
  server app with the deterministic load generator, report requests/sec
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps import app_by_name, run_app, standard_files
from repro.core import Healers
from repro.profiling import render_full_report
from repro.serving import MIXES, SERVING_PRESETS
from repro.wrappers import PRESETS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="healers",
        description="HEALERS toolkit (DSN'03 reproduction) over a "
                    "simulated C runtime",
    )
    parser.add_argument(
        "--telemetry", action="append", default=[], metavar="SINK",
        help="attach a telemetry sink (repeatable): jsonl:PATH, "
             "metrics, or collection:HOST:PORT; events from wrappers, "
             "campaigns and shipped documents all flow through it",
    )
    parser.add_argument(
        "--telemetry-batch", type=int, default=256, metavar="N",
        help="events buffered per bus before an inline flush "
             "(default 256)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-libs", help="list all libraries on the system")
    sub.add_parser("list-apps", help="list all applications on the system")

    scan_lib = sub.add_parser("scan-lib", help="scan one shared library")
    scan_lib.add_argument("path")
    scan_lib.add_argument("--xml", action="store_true",
                          help="emit the XML declaration file")

    scan_app = sub.add_parser("scan-app", help="scan one application")
    scan_app.add_argument("path")
    scan_app.add_argument("--html", default="",
                          help="also write the Fig. 4 style HTML page here")

    inject = sub.add_parser("inject", help="run fault-injection experiments")
    inject.add_argument("--functions",
                        help="comma-separated subset (default: all)")
    inject.add_argument("--save", default="",
                        help="store the experiment verdicts as XML here")
    _add_execution_args(inject)

    campaign = sub.add_parser(
        "campaign",
        help="parallel, resumable fault-injection sweep with a "
             "probe-result cache",
    )
    campaign.add_argument("--functions",
                          help="comma-separated subset (default: all)")
    campaign.add_argument("--save", default="",
                          help="store the experiment verdicts as XML here")
    campaign.add_argument("--cache", default="healers-probe-cache.xml",
                          help="probe-result cache file (written after "
                               "the run; loaded first with --resume)")
    campaign.add_argument("--resume", action="store_true",
                          help="reuse cached verdicts; execute only the "
                               "probes not in the cache")
    campaign.add_argument("--progress", action="store_true",
                          help="print live progress while probing")
    campaign.add_argument("--metrics", action="store_true",
                          help="print the telemetry metrics summary "
                               "after the sweep")
    _add_execution_args(campaign, default_jobs=0, default_backend="thread")

    derive = sub.add_parser("derive",
                            help="derive the robust API (runs injection)")
    derive.add_argument("--functions",
                        help="comma-separated subset (default: all)")
    derive.add_argument("--load", default="",
                        help="derive from stored experiments instead of "
                             "running injection")
    derive.add_argument("--xml", action="store_true",
                        help="emit the full XML declaration document")
    _add_execution_args(derive)

    derive_checks = sub.add_parser(
        "derive-checks",
        help="derive introspection check plans for every function "
             "(full coverage; no injection required)",
    )
    derive_checks.add_argument(
        "--load", default="",
        help="fold stored campaign experiments (XML) into the plans")
    derive_checks.add_argument(
        "--xml", action="store_true",
        help="emit the full-coverage XML declaration document "
             "(with <checks> plan nodes)")
    derive_checks.add_argument(
        "--uncovered", action="store_true",
        help="list functions whose plan carries no enforceable check")

    generate = sub.add_parser("generate", help="generate a wrapper library")
    generate.add_argument("preset", choices=sorted(PRESETS))
    generate.add_argument("--functions",
                          help="comma-separated subset (default: all)")
    generate.add_argument("--c", action="store_true",
                          help="print the generated C source (Fig. 3)")

    profile = sub.add_parser("profile",
                             help="run a bundled app under the profiling "
                                  "wrapper and print the report")
    profile.add_argument("app")
    profile.add_argument("--arg", action="append", default=[],
                         dest="app_args", help="argv entry for the app")
    profile.add_argument("--stdin", default="",
                         help="text fed to the app's stdin")
    profile.add_argument("--html", default="",
                         help="also write the Fig. 5 style HTML page here")

    run = sub.add_parser("run", help="run a bundled app, optionally wrapped")
    run.add_argument("app")
    run.add_argument("--wrap", action="append", default=[],
                     choices=sorted(PRESETS),
                     help="preload this wrapper type (repeatable)")
    run.add_argument("--config", default="",
                     help="XML deployment file selecting wrappers per app")
    run.add_argument("--arg", action="append", default=[], dest="app_args")
    run.add_argument("--stdin", default="")

    sub.add_parser("attack-demo",
                   help="demo 3.4: heap smash with and without the "
                        "security wrapper")

    adversarial = sub.add_parser(
        "adversarial",
        help="run the scored attack corpus under k-fault chaos "
             "schedules and print the containment matrix",
    )
    adversarial.add_argument("--attacks",
                             help="comma-separated corpus subset "
                                  "(default: the full corpus)")
    adversarial.add_argument("--presets", default="",
                             help="comma-separated presets to score "
                                  "(default: security,robustness,"
                                  "hardened,recovery)")
    adversarial.add_argument("--seeds", default="2003",
                             help="comma-separated campaign seeds")
    adversarial.add_argument("--trials", type=int, default=2,
                             help="trials per (attack, preset, seed)")
    adversarial.add_argument("--kmax", type=int, default=3,
                             help="largest simultaneous-fault set size")
    adversarial.add_argument("--horizon", type=int, default=6,
                             help="invocation-index horizon faults are "
                                  "scheduled within (default 6)")
    adversarial.add_argument("--exec-backend", default="serial",
                             choices=["serial", "thread"],
                             help="campaign worker pool backend")
    adversarial.add_argument("--jobs", type=int, default=2,
                             help="worker count for --exec-backend "
                                  "thread (default 2)")
    adversarial.add_argument("--watchdog", type=float, default=0.0,
                             help="per-cell watchdog in seconds "
                                  "(0 = disabled)")
    adversarial.add_argument("--cache", default="",
                             help="trial-result cache file: loaded "
                                  "before the run (fingerprint-gated), "
                                  "written after it")
    adversarial.add_argument("--output", default="",
                             help="write the full campaign report as "
                                  "JSON here")

    serve = sub.add_parser(
        "serve",
        help="drive a bundled server app through the deterministic "
             "load generator and report requests/sec",
    )
    serve.add_argument("--app", default="kvd",
                       help="server app name (kvd, httpd, tmpld)")
    serve.add_argument("--preset", default="robustness",
                       choices=sorted(SERVING_PRESETS),
                       help="wrapper preset (unwrapped = bare baseline)")
    serve.add_argument("--mix", default="hot", choices=sorted(MIXES),
                       help="load-generator request mix (default hot)")
    serve.add_argument("--requests", type=int, default=400,
                       help="timed requests to serve (default 400)")
    serve.add_argument("--seed", type=int, default=7,
                       help="load-generator seed (default 7)")
    serve.add_argument("--rps", type=float, default=0.0,
                       help="minimum requests/sec to accept "
                            "(0 = report only; below the floor exits 1)")
    serve.add_argument("--no-fuse", action="store_true",
                       help="serve without the fused fast path")

    storm = sub.add_parser(
        "storm",
        help="drive a fault storm against a live serving session and "
             "report availability under the graceful-degradation ladder",
    )
    storm.add_argument("--app", default="kvd",
                       help="server app name (kvd, httpd, tmpld)")
    storm.add_argument("--preset", default="security",
                       choices=sorted(SERVING_PRESETS),
                       help="wrapper preset for the supervised session")
    storm.add_argument("--mix", default="storm", choices=sorted(MIXES),
                       help="load-generator request mix (default storm)")
    storm.add_argument("--requests", type=int, default=400,
                       help="storm length in requests (default 400)")
    storm.add_argument("--seed", type=int, default=42,
                       help="storm schedule seed (default 42)")
    storm.add_argument("--load-seed", type=int, default=11,
                       help="load-generator seed (default 11)")
    storm.add_argument("--trial", type=int, default=0,
                       help="storm trial index (default 0)")
    storm.add_argument("--deadline-fuel", type=int, default=0,
                       help="per-request fuel deadline "
                            "(0 = the built-in default)")
    storm.add_argument("--baseline", action="store_true",
                       help="also run the unsupervised no-ladder "
                            "baseline over the same storm")
    storm.add_argument("--gate", type=float, default=0.0,
                       help="availability floor to accept "
                            "(0 = report only; below the floor exits 1)")
    storm.add_argument("--json", action="store_true",
                       help="print the full storm report as JSON")

    collector = sub.add_parser(
        "serve-collector",
        help="run the central collection server for profile documents",
    )
    collector.add_argument("--port", type=int, default=0)
    collector.add_argument("--expect", type=int, default=0,
                           help="exit after receiving this many documents "
                                "(0 = run until interrupted)")

    collect = sub.add_parser(
        "collect",
        help="the collection fabric: serve, query fleet stats, or "
             "replay a write-ahead spool",
    )
    collect_sub = collect.add_subparsers(dest="collect_command",
                                         required=True)
    collect_serve = collect_sub.add_parser(
        "serve",
        help="run the sharded non-blocking ingest fabric",
    )
    collect_serve.add_argument("--port", type=int, default=0)
    collect_serve.add_argument("--shards", type=int, default=4,
                               help="store partitions and spool files, "
                                    "documents routed by application "
                                    "(default 4)")
    collect_serve.add_argument("--credit-limit", type=int, default=64,
                               help="un-acked documents per connection "
                                    "before reads pause (default 64)")
    collect_serve.add_argument("--spool-dir", default="",
                               help="write-ahead spool directory "
                                    "(empty = spooling off)")
    collect_serve.add_argument("--no-fsync", action="store_true",
                               help="skip fsync on spool commits "
                                    "(faster, loses the crash guarantee)")
    collect_serve.add_argument("--spool-key", default="",
                               help="deployment key HMAC-chaining spool "
                                    "records (empty = CRC-only legacy "
                                    "spool)")
    collect_serve.add_argument("--expect", type=int, default=0,
                               help="exit after receiving this many "
                                    "documents (0 = run until "
                                    "interrupted)")
    collect_stats = collect_sub.add_parser(
        "stats",
        help="query a live fabric server for its fleet rollup",
    )
    collect_stats.add_argument("--host", default="127.0.0.1")
    collect_stats.add_argument("--port", type=int, required=True)
    collect_stats.add_argument("--json", action="store_true",
                               help="print the raw JSON snapshot")
    collect_replay = collect_sub.add_parser(
        "replay",
        help="inspect a write-ahead spool offline (recovered documents, "
             "torn tails, per-shipper sequences)",
    )
    collect_replay.add_argument("--spool-dir", required=True)
    collect_replay.add_argument("--shards", type=int, default=4,
                                help="shard count the spool was written "
                                     "with (default 4)")
    collect_replay.add_argument("--key", default="",
                                help="deployment key the spool was "
                                     "HMAC-chained under (empty = "
                                     "CRC-only legacy spool)")
    return parser


def _add_execution_args(parser, default_jobs: int = 1,
                        default_backend: str = "serial") -> None:
    """``--jobs/--backend`` for commands that run the injection engine."""
    parser.add_argument("--jobs", type=int, default=default_jobs,
                        help="worker count (0 = one per CPU; "
                             f"default {default_jobs})")
    parser.add_argument("--backend", default=default_backend,
                        choices=["serial", "thread", "process"],
                        help=f"worker pool backend (default "
                             f"{default_backend})")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    toolkit = Healers()
    if args.telemetry:
        from repro.core.config import TelemetrySettings

        toolkit.configure_telemetry(
            TelemetrySettings(sinks=args.telemetry,
                              batch_size=args.telemetry_batch)
        )
    handler = _HANDLERS[args.command]
    try:
        return handler(toolkit, args)
    finally:
        toolkit.close_telemetry()


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------

def _cmd_list_libs(toolkit: Healers, args) -> int:
    print(f"{'PATH':<24} {'SONAME':<16} {'FUNCS':>6} {'PROTOTYPED':>10}")
    for scan in toolkit.list_libraries():
        print(f"{scan.path:<24} {scan.soname:<16} "
              f"{scan.function_count:>6} {scan.prototyped:>10}")
    return 0


def _cmd_list_apps(toolkit: Healers, args) -> int:
    for path in toolkit.list_applications():
        print(path)
    return 0


def _cmd_scan_lib(toolkit: Healers, args) -> int:
    if args.xml:
        print(toolkit.declaration_file(args.path))
        return 0
    scan = toolkit.scan_library(args.path)
    print(f"{scan.path} (soname {scan.soname}): "
          f"{scan.function_count} functions, "
          f"{scan.prototyped} with prototypes")
    for name in scan.functions:
        print(f"  {name}")
    return 0


def _cmd_scan_app(toolkit: Healers, args) -> int:
    scan = toolkit.scan_application(args.path)
    if args.html:
        from repro.reporting import render_application_scan_html

        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_application_scan_html(scan))
        print(f"wrote {args.html}")
    print(f"{scan.path}:")
    if not scan.dynamically_linked:
        print("  statically linked — HEALERS cannot protect this binary")
        return 1
    print("  linked libraries:")
    for soname, path in scan.resolved_libraries.items():
        print(f"    {soname} => {path}")
    for soname in scan.missing_libraries:
        print(f"    {soname} => NOT FOUND")
    print(f"  undefined functions ({len(scan.undefined_functions)}, "
          f"{scan.coverage:.0%} wrappable):")
    for name in scan.undefined_functions:
        marker = "" if name in scan.wrappable else "   [no wrapper]"
        print(f"    {name}{marker}")
    return 0


def _functions_arg(args) -> Optional[List[str]]:
    if getattr(args, "functions", None):
        return [name.strip() for name in args.functions.split(",")]
    return None


def _cmd_inject(toolkit: Healers, args) -> int:
    result = toolkit.run_fault_injection(
        _functions_arg(args), jobs=args.jobs, backend=args.backend
    )
    if args.save:
        from repro.injection import campaign_to_xml

        with open(args.save, "w", encoding="utf-8") as handle:
            handle.write(campaign_to_xml(result))
        print(f"experiments stored in {args.save}")
    _print_campaign_summary(result)
    return 0


def _cmd_campaign(toolkit: Healers, args) -> int:
    observer = None
    if args.progress:
        from repro.reporting import CampaignProgress

        # progress is just another telemetry sink on the probe stream
        toolkit.add_telemetry_sink(CampaignProgress())
    metrics = toolkit.metrics_sink()
    if args.metrics and metrics is None:
        from repro.telemetry import MetricsSink

        metrics = toolkit.add_telemetry_sink(MetricsSink())
    result = toolkit.run_fault_injection(
        _functions_arg(args),
        jobs=args.jobs,
        backend=args.backend,
        cache=args.cache,
        resume=args.resume,
        observer=observer,
    )
    if args.save:
        from repro.injection import campaign_to_xml

        with open(args.save, "w", encoding="utf-8") as handle:
            handle.write(campaign_to_xml(result))
        print(f"experiments stored in {args.save}")
    stats = toolkit.campaign_stats
    if stats is not None:
        print(stats.describe())
        if args.cache:
            print(f"cache: {args.cache} "
                  f"({stats.cache_hit_rate:.0%} hit rate)")
    if args.metrics and metrics is not None:
        toolkit.telemetry.flush()
        print(metrics.describe())
    _print_campaign_summary(result)
    return 0


def _print_campaign_summary(result) -> None:
    print(f"library {result.library}: {result.total_probes} probes, "
          f"{result.total_failures} robustness failures "
          f"({result.failure_rate:.1%})")
    for key, value in sorted(result.outcome_counts().items()):
        print(f"  {key:<8} {value}")
    worst = sorted(result.reports.values(),
                   key=lambda r: -r.failure_rate)[:10]
    print("most brittle functions:")
    for report in worst:
        print(f"  {report.function:<12} {report.failure_rate:.1%} "
              f"({len(report.failures)}/{report.total_probes})")


def _cmd_derive(toolkit: Healers, args) -> int:
    if args.load:
        from repro.injection import campaign_from_xml

        with open(args.load, encoding="utf-8") as handle:
            result = campaign_from_xml(handle.read())
    else:
        result = toolkit.run_fault_injection(
            _functions_arg(args), jobs=args.jobs, backend=args.backend
        )
    document = toolkit.derive_robust_api(result)
    if args.xml:
        print(document.to_xml())
        return 0
    for name in sorted(toolkit.derivations):
        derivation = toolkit.derivations[name]
        strengthened = [p for p in derivation.params if p.strengthened]
        if not strengthened:
            continue
        print(name)
        for param in strengthened:
            print(f"  {param.describe()}")
    return 0


def _cmd_derive_checks(toolkit: Healers, args) -> int:
    from repro.robust import coverage_report, derive_api, uncovered

    if args.load:
        from repro.injection import campaign_from_xml

        with open(args.load, encoding="utf-8") as handle:
            result = campaign_from_xml(handle.read())
        toolkit.campaign_result = result
        toolkit.derivations = derive_api(result, toolkit.registry,
                                         toolkit.manpages)
    document = toolkit.build_introspected_document()
    if args.xml:
        print(document.to_xml())
        return 0
    plans = toolkit.all_check_plans()
    report = coverage_report(plans)
    libraries = [toolkit.registry.library_name]
    libraries += sorted(toolkit.extra_registries)
    print(f"check plans: {report['functions']} functions across "
          f"{', '.join(libraries)} "
          f"({report['functions_with_checks']} with enforceable checks)")
    print(f"  parameters: {report['params_with_plans']}/{report['params']} "
          f"planned, {report['relational_params']} relational "
          f"(pointer+length, capacity, base)")
    sources = ", ".join(f"{key}={value}" for key, value in
                        sorted(report["params_by_source"].items()))
    print(f"  plan sources: {sources}")
    if toolkit.derivations:
        print(f"  campaign verdicts folded in for "
              f"{len(toolkit.derivations)} functions")
    if args.uncovered:
        names = uncovered(plans)
        print(f"scalar-only functions (nothing to enforce): {len(names)}")
        for name in names:
            print(f"  {name}")
    return 0


def _cmd_generate(toolkit: Healers, args) -> int:
    functions = _functions_arg(args)
    if args.c:
        print(toolkit.wrapper_source(args.preset, functions))
        return 0
    built = toolkit.generate_wrapper(args.preset, functions)
    print(f"built {built.library.soname}: {len(built.functions)} wrappers "
          f"({', '.join(built.spec.generators)})")
    return 0


def _cmd_profile(toolkit: Healers, args) -> int:
    app = app_by_name(args.app)
    result, document = toolkit.profile_run(
        app,
        argv=args.app_args or _default_argv(app.name),
        stdin=args.stdin.encode(),
        files=standard_files(),
    )
    if args.html:
        from repro.reporting import render_profile_html

        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_profile_html(document))
        print(f"wrote {args.html}")
    print(render_full_report(document))
    return 0 if result.succeeded else 1


def _cmd_run(toolkit: Healers, args) -> int:
    app = app_by_name(args.app)
    if args.config:
        from repro.core.config import DeploymentConfig

        with open(args.config, encoding="utf-8") as handle:
            config = DeploymentConfig.from_xml(handle.read())
        toolkit.apply_deployment(config, app.path)
    for preset in args.wrap:
        toolkit.preload(preset)
    result = run_app(app, toolkit.linker,
                     argv=args.app_args or _default_argv(app.name),
                     stdin=args.stdin.encode(),
                     files=standard_files())
    sys.stdout.write(result.stdout)
    if result.crashed:
        print(f"[{app.name} died: {result.exception}]")
        return 139
    return result.status or 0


def _cmd_attack_demo(toolkit: Healers, args) -> int:
    from repro.security.attacks import HEAP_SMASH

    print("demo 3.4 — heap buffer overflow against the root daemon authd")
    print(f"payload: {len(HEAP_SMASH.payload())} bytes\n")

    print("[1/2] without protection:")
    result = run_app(HEAP_SMASH.app, toolkit.linker,
                     stdin=HEAP_SMASH.payload())
    print(result.stdout.rstrip())
    if HEAP_SMASH.hijacked(result):
        print("  => control flow hijacked: attacker has a ROOT SHELL\n")
    else:
        print("  => exploit failed (unexpected)\n")

    print("[2/2] with the security wrapper preloaded:")
    built = toolkit.preload("security")
    result = run_app(HEAP_SMASH.app, toolkit.linker,
                     stdin=HEAP_SMASH.payload())
    print(result.stdout.rstrip() or "  (no output)")
    if result.crashed and not HEAP_SMASH.hijacked(result):
        print(f"  => overflow detected, program terminated: "
              f"{result.exception}")
        for event in built.state.security_events:
            print(f"     security event: {event.function}: {event.reason}")
        return 0
    print("  => exploit was NOT contained (unexpected)")
    return 1


def _cmd_adversarial(toolkit: Healers, args) -> int:
    import json

    from repro.chaos import ChaosCampaign, DEFAULT_PRESETS, TrialCache
    from repro.security.corpus import CORPUS, GATED_PRESETS, attack_by_name

    if args.attacks:
        attacks = [attack_by_name(name.strip())
                   for name in args.attacks.split(",")]
    else:
        attacks = list(CORPUS)
    presets = ([name.strip() for name in args.presets.split(",")]
               if args.presets else list(DEFAULT_PRESETS))
    seeds = [int(seed) for seed in args.seeds.split(",")]

    campaign = ChaosCampaign(
        toolkit.registry,
        toolkit.build_declaration_document(),
        attacks=attacks,
        presets=presets,
        seeds=seeds,
        trials=args.trials,
        kmax=args.kmax,
        horizon=args.horizon,
        exec_backend=args.exec_backend,
        jobs=args.jobs,
        watchdog=args.watchdog or None,
        on_incident=lambda line: print(f"  [incident] {line}"),
    )
    if args.cache:
        campaign.cache = TrialCache.load_or_create(
            args.cache, campaign.fingerprint())
        if len(campaign.cache):
            print(f"resuming: {len(campaign.cache)} cached cells "
                  f"in {args.cache}")
    metrics = toolkit.metrics_sink()
    if metrics is not None:
        campaign.sinks.append(metrics)

    report = campaign.run()

    print(f"adversarial campaign: {len(attacks)} attacks x "
          f"{len(presets)} presets x {len(seeds)} seeds x "
          f"{args.trials} trials, kmax={args.kmax}")
    prune = report.prune
    print(f"k-fault space: naive {prune.naive}, executed "
          f"{prune.executed}, skipped {prune.skipped_fraction:.0%} "
          f"({prune.pruned_equivalence} equivalence, "
          f"{prune.pruned_dominated} dominated)")
    if report.cache_hits:
        print(f"cache hits: {report.cache_hits}")

    print("containment matrix (preset x attack class):")
    matrix = report.matrix()
    for preset in presets:
        classes = matrix.get(preset, {})
        print(f"  {preset}: containment "
              f"{report.containment_rate(preset):.0%}")
        for attack_class in sorted(classes):
            cell = classes[attack_class]
            summary = " ".join(f"{verdict}={count}" for verdict, count
                               in sorted(cell.items()))
            print(f"    {attack_class:<18} {summary}")

    escapes = report.escapes()
    gated = [record for record in escapes
             if record.preset in GATED_PRESETS]
    if escapes:
        print(f"escapes ({len(escapes)}), replay witnesses:")
        for record in escapes[:20]:
            witness = json.dumps(record.replay_witness(), sort_keys=True)
            print(f"  {witness}")
        if len(escapes) > 20:
            print(f"  ... and {len(escapes) - 20} more")

    if args.cache:
        campaign.cache.save(args.cache)
        print(f"cache written: {args.cache} "
              f"({len(campaign.cache)} cells)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report written: {args.output}")

    if gated:
        print(f"FAIL: {len(gated)} escapes under gated presets "
              f"({', '.join(sorted({r.preset for r in gated}))})")
        return 1
    return 0


def _cmd_serve(toolkit: Healers, args) -> int:
    from repro.apps import SERVER_APPS
    from repro.serving import LoadGenerator, ServingSession
    from repro.wrappers.presets import full_coverage_api

    apps = {app.name: app for app in SERVER_APPS}
    app = apps.get(args.app)
    if app is None:
        print(f"unknown server app {args.app!r}; "
              f"known: {', '.join(sorted(apps))}")
        return 2
    fused = not args.no_fuse
    session = ServingSession(
        app, preset=args.preset,
        fused=fused, registry=toolkit.registry,
        api=full_coverage_api(toolkit.registry, toolkit.manpages),
    )
    gen = LoadGenerator(app.name, mix=args.mix, seed=args.seed)
    if fused:
        recorded = session.record_traces(gen.warmup, gen.samples)
        print(f"recorded {len(recorded)} trace kinds "
              f"({sum(recorded.values())} wrapped calls)")
    session.serve_all(gen.warmup)
    stats = session.drive(gen.stream(args.requests))
    lane = "fused" if fused else "unfused"
    print(f"{app.name} [{args.preset}, {lane}] "
          f"mix={args.mix} seed={args.seed}")
    print(f"  {stats.requests} requests in {stats.elapsed:.3f}s "
          f"=> {stats.rps:,.0f} requests/sec")
    if fused:
        print(f"  trace hits {stats.trace_hits}, deopts {stats.deopts}, "
              f"table calls {stats.table_calls}, fallback calls "
              f"{stats.fallback_calls}")
    if args.rps and stats.rps < args.rps:
        print(f"FAIL: {stats.rps:,.0f} requests/sec is below the "
              f"--rps {args.rps:,.0f} floor")
        return 1
    return 0


def _cmd_storm(toolkit: Healers, args) -> int:
    import json

    from repro.apps import SERVER_APPS
    from repro.chaos import StormSchedule
    from repro.serving import (
        LoadGenerator,
        ResilientSession,
        ServingSLO,
        run_unsupervised,
    )
    from repro.wrappers.presets import full_coverage_api

    apps = {app.name: app for app in SERVER_APPS}
    app = apps.get(args.app)
    if app is None:
        print(f"unknown server app {args.app!r}; "
              f"known: {', '.join(sorted(apps))}")
        return 2
    api = full_coverage_api(toolkit.registry, toolkit.manpages)
    gen = LoadGenerator(app.name, mix=args.mix, seed=args.load_seed)
    schedule = StormSchedule(seed=args.seed, trial=args.trial,
                             requests=args.requests)
    requests = gen.stream(schedule.requests)
    slo = ServingSLO(deadline_fuel=args.deadline_fuel) \
        if args.deadline_fuel else None
    session = ResilientSession(
        app, preset=args.preset,
        registry=toolkit.registry, api=api, slo=slo,
    )
    session.prepare(gen)
    report = session.serve_storm(schedule, requests)
    base = None
    if args.baseline:
        base = run_unsupervised(
            app, schedule, requests, preset=args.preset,
            registry=toolkit.registry, api=api, gen=gen,
        )
    if args.json:
        payload = {"supervised": report.to_dict()}
        payload["supervised"]["witnesses"] = report.witnesses()
        if base is not None:
            payload["baseline"] = base.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        counts = report.counts()
        print(f"{app.name} [{args.preset}] "
              f"storm seed={args.seed} trial={args.trial} "
              f"({schedule.total_faults()} scheduled faults)")
        print(f"  availability {report.availability:.1%} "
              f"({report.answered}/{len(report.outcomes)} answered): "
              f"{counts['ok']} ok, {counts['degraded']} degraded, "
              f"{counts['timeout']} timeout, {counts['crashed']} crashed, "
              f"{counts['shed']} shed")
        print(f"  fuel p50 {report.fuel_quantile(0.5)}, "
              f"p99 {report.fuel_quantile(0.99)} "
              f"(deadline {session.slo.deadline_fuel})")
        for t in session.breaker.transitions:
            print(f"  ladder: request {t.request_index} "
                  f"{t.rung_from} -> {t.rung_to} ({t.reason})")
        if base is not None:
            print(f"  baseline (no ladder): availability "
                  f"{base.availability:.1%} "
                  f"({base.answered}/{len(base.outcomes)} answered)")
    if args.gate and report.availability < args.gate:
        print(f"FAIL: availability {report.availability:.1%} is below "
              f"the --gate {args.gate:.1%} floor")
        return 1
    return 0


def _cmd_serve_collector(toolkit: Healers, args) -> int:
    from repro.collection import IngestServer

    with IngestServer(port=args.port) as server:
        print(f"collection server listening on "
              f"{server.address[0]}:{server.address[1]}")
        _serve_until(server, args.expect)
    return 0


def _serve_until(server, expect: int) -> None:
    """Serve until ``expect`` documents are stored (0: until Ctrl-C)."""
    import time

    try:
        while True:
            time.sleep(0.1)
            if expect and len(server.store) >= expect:
                break
    except KeyboardInterrupt:
        pass
    print(f"received {len(server.store)} documents from "
          f"{', '.join(server.store.applications()) or 'nobody'}")


def _cmd_collect(toolkit: Healers, args) -> int:
    handler = {
        "serve": _cmd_collect_serve,
        "stats": _cmd_collect_stats,
        "replay": _cmd_collect_replay,
    }[args.collect_command]
    return handler(toolkit, args)


def _cmd_collect_serve(toolkit: Healers, args) -> int:
    from repro.core.config import CollectionSettings

    settings = CollectionSettings(
        port=args.port, shards=args.shards,
        credit_limit=args.credit_limit, spool_dir=args.spool_dir,
        fsync=not args.no_fsync, spool_key=args.spool_key,
    )
    settings.validate()
    with settings.build_server() as server:
        print(f"collection fabric (fabric, {args.shards} shard(s), "
              f"credit {args.credit_limit}) listening on "
              f"{server.address[0]}:{server.address[1]}")
        if server.replayed:
            print(f"replayed {server.replayed} document(s) from the "
                  f"spool at {args.spool_dir}")
        _serve_until(server, args.expect)
        print(server.fleet().describe())
    return 0


def _cmd_collect_stats(toolkit: Healers, args) -> int:
    import json

    from repro.collection import fetch_fleet_stats

    snapshot = fetch_fleet_stats((args.host, args.port))
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    server = snapshot.get("server", {})
    print(f"[fleet] server: {server.get('documents', 0)} documents, "
          f"{server.get('frames', 0)} frames, "
          f"{server.get('duplicates', 0)} duplicates, "
          f"{server.get('connections', 0)} connections, "
          f"{server.get('shards', 0)} shard(s)")
    print(f"[fleet] {snapshot.get('documents', 0)} documents from "
          f"{snapshot.get('applications', 0)} application(s), "
          f"{snapshot.get('keys', 0)} (library, function, wrapper) keys")
    cells = snapshot.get("cells", {})
    busiest = sorted(cells.items(),
                     key=lambda item: -item[1]["calls"])[:15]
    for key, cell in busiest:
        library, _, rest = key.partition("|")
        function, _, wrapper = rest.partition("|")
        print(f"[fleet]   {library:<12} {function:<16} {wrapper:<12} "
              f"{cell['calls']:>8} calls  p50 {cell['p50_ns_per_call']:>7}"
              f" ns  p99 {cell['p99_ns_per_call']:>7} ns"
              f"  viol {cell['violation_rate']:.2%}")
    return 0


def _cmd_collect_replay(toolkit: Healers, args) -> int:
    from repro.collection import SpoolAuthenticationError, replay_documents

    try:
        documents, last_seq, results = replay_documents(
            args.spool_dir, args.shards,
            key=args.key.encode() if args.key else None)
    except SpoolAuthenticationError as exc:
        print(f"[spool] authentication failure: {exc}")
        return 1
    segments = sum(result.segments for result in results)
    torn = [entry for result in results for entry in result.truncated]
    print(f"[spool] {args.spool_dir}: {len(documents)} document(s) "
          f"recoverable from {segments} segment(s)")
    for path, valid, original in torn:
        print(f"[spool]   torn tail in {path}: {original - valid} "
              f"byte(s) after offset {valid}")
    for shipper in sorted(last_seq):
        print(f"[spool]   shipper {shipper}: last committed "
              f"seq {last_seq[shipper]}")
    return 0


def _default_argv(app_name: str) -> List[str]:
    defaults = {
        "wordcount": ["/data/sample.txt"],
        "csvstat": ["/data/values.csv"],
    }
    return defaults.get(app_name, [])


_HANDLERS = {
    "list-libs": _cmd_list_libs,
    "list-apps": _cmd_list_apps,
    "scan-lib": _cmd_scan_lib,
    "scan-app": _cmd_scan_app,
    "inject": _cmd_inject,
    "campaign": _cmd_campaign,
    "derive": _cmd_derive,
    "derive-checks": _cmd_derive_checks,
    "generate": _cmd_generate,
    "profile": _cmd_profile,
    "run": _cmd_run,
    "attack-demo": _cmd_attack_demo,
    "adversarial": _cmd_adversarial,
    "serve": _cmd_serve,
    "storm": _cmd_storm,
    "serve-collector": _cmd_serve_collector,
    "collect": _cmd_collect,
}


if __name__ == "__main__":
    sys.exit(main())
