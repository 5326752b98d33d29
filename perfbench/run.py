"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Workloads: ``serve-hot``, ``serve-storm``, ``ingest`` and ``campaign``
(see ``serving.py``, ``ingest.py`` and ``campaign.py`` for what each
drives and why).  Every run checks the program's outputs; a failed
check makes the result ``"correct": false``.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics: ``setup_s``, ``throughput``, ``latency_p50_us``,
``latency_p99_us`` and ``peak_rss_mb``.  ``--trace 1`` runs a fixed
amount of work twice, untraced and then under cProfile, and reports the
per-layer split (``layers.py``), the counters the program keeps, the
set-up phases and the tracing overhead.

The last line of standard output is the result as one JSON object; the
line before it (``raw {...}``) records raw timings, the calibration and
the machine, which are never used to gate.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve-hot", "serve-storm", "ingest", "campaign")
#: spawned set-ups per run for the in-process workloads
SETUP_PROBES = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "peak_rss_mb": "MB",
}

COUNTER_UNITS = {
    "wrappers.trace_hit_ratio": "ratio",
    "wrappers.table_calls_per_op": "count",
    "wrappers.fallback_calls_per_op": "count",
    "wrappers.deopts": "count",
    "robust.memo_hit_ratio": "ratio",
    "wrappers.resolver_hit_ratio": "ratio",
    "runtime.fuel_per_op": "count",
    "memory.heap.malloc_calls_per_op": "count",
    "memory.heap.failed_allocations": "count",
    "memory.heap.peak_bytes": "bytes",
    "recovery.degraded": "count",
    "recovery.shed": "count",
    "recovery.timeouts": "count",
    "recovery.rung_transitions": "count",
    "recovery.residual_heap_defects": "count",
    "chaos.faults_injected": "count",
    "collection.docs_per_frame": "count",
    "collection.duplicates": "count",
    "collection.errors": "count",
    "collection.fsyncs_per_kdoc": "count",
    "injection.probes_executed": "count",
    "injection.setup_errors": "count",
    "injection.verdict_failures": "count",
    "serving.setup_api_s": "s",
    "serving.setup_sessions_s": "s",
    "collection.setup_spawn_s": "s",
}


def per_layer_units() -> dict:
    from layers import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_us_per_op"] = "us"
        units[f"{layer}.calls_per_op"] = "count"
        units[f"{layer}.share"] = "%"
    units["other.self_us_per_op"] = "us"
    units["bench.self_us_per_op"] = "us"
    units["trace.busy_us_per_op"] = "us"
    units["trace.wait_us_per_op"] = "us"
    units["trace.layer_share_sum"] = "%"
    units["trace.overhead"] = "ratio"
    units.update(COUNTER_UNITS)
    return units


def build(name: str, seed: int):
    if name == "serve-hot":
        from serving import ServeHot
        return ServeHot(seed)
    if name == "serve-storm":
        from serving import ServeStorm
        return ServeStorm(seed)
    if name == "ingest":
        from ingest import Ingest
        return Ingest(seed, ROOT)
    from campaign import CampaignSweep
    return CampaignSweep(seed)


def spawned_setups(name: str, seed: int, calibrated: bool,
                   count: int) -> list:
    """Seconds from spawning a fresh process to its first timed op."""
    from harness import calibrate, scale_between

    samples = []
    for _ in range(count):
        before = calibrate() if calibrated else None
        started = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - started
        probe.communicate()
        if probe.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed (code "
                               f"{probe.returncode}): {line!r}")
        factor = scale_between(before, calibrate()) if calibrated else 1.0
        samples.append((elapsed, elapsed * factor))
    return samples


def timed_run(workload, args, fingerprint) -> None:
    from harness import CAL_EXPONENT, Timings, emit, peak_rss_mb

    calibrated = workload.calibrated
    timings = Timings(getattr(workload, "cal_exponent", CAL_EXPONENT),
                      getattr(workload, "p50_exponent", None))
    # ingest spawns a collector for every window, and each spawn is a
    # set-up sample; the others spawn set-up probes, half before the
    # measurement and half after, to sample the machine's speed over
    # the whole run
    probes = 0 if workload.name == "ingest" else SETUP_PROBES
    setups = spawned_setups(args.workload, args.seed, calibrated,
                            probes // 2)
    segment = workload.measure(args.seconds, timings)
    # before the checks and the sorting below add their own transients
    peak_rss = peak_rss_mb(getattr(workload, "child_hwm", 0))
    setups += spawned_setups(args.workload, args.seed, calibrated,
                             probes - probes // 2)
    setups += getattr(workload, "spawns", [])
    problems = workload.check()
    summary = timings.summary(segment.operations, calibrated)
    raw_summary = timings.summary(segment.operations, False)
    metrics = {
        "setup_s": statistics.median(s[1] for s in setups),
        "throughput": summary["throughput"],
        "latency_p50_us": summary["latency_p50_us"],
        "latency_p99_us": summary["latency_p99_us"],
        "peak_rss_mb": peak_rss,
    }
    raw = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "calibrated": calibrated,
        "raw": raw_summary,
        "run_cal": timings.run_cal,
        "setup_raw_s": [s[0] for s in setups],
        "operations": segment.operations,
        "machine": fingerprint, "problems": problems,
        "notes": workload.notes,
    }
    emit(not problems, segment.attempted, segment.failed, metrics,
         END_TO_END_UNITS, raw)


def traced_run(workload, args, fingerprint) -> None:
    from harness import emit
    from layers import LayerProfile

    untraced = workload.fixed_work(profile=False)
    traced = workload.fixed_work(profile=True)
    stats = workload.stats
    problems = workload.check()
    layers = LayerProfile(stats)
    operations = traced.operations
    units = per_layer_units()
    metrics = {name: 0.0 for name in units}
    metrics.update(layers.metrics(operations))
    metrics.update(workload.counters())
    metrics["trace.overhead"] = ((traced.operations / traced.span)
                                 / (untraced.operations / untraced.span))
    if workload.name == "ingest":
        metrics["collection.fsyncs_per_kdoc"] = (
            layers.count_calls("<built-in method posix.fsync>")
            * 1000.0 / operations)
    phases = workload.phases
    metrics["serving.setup_api_s"] = phases.get("api", 0.0)
    metrics["serving.setup_sessions_s"] = phases.get("sessions", 0.0)
    metrics["collection.setup_spawn_s"] = phases.get("spawn", 0.0)
    if not 90.0 <= metrics["trace.layer_share_sum"] <= 110.0:
        problems.append(f"layer shares sum to "
                        f"{metrics['trace.layer_share_sum']:.1f} % of the "
                        f"traced total")
    if args.workload.startswith("serve-"):
        # telemetry off may read the bus epoch once per request (the
        # designed request-boundary probe) and build events for
        # incidents (violations, sheds, ladder moves); nothing per call
        steady = (layers.calls.get("telemetry", 0)
                  - layers.count_calls("/telemetry/events.py:")
                  - layers.count_calls("/telemetry/bus.py:emit"))
        if steady > traced.attempted:
            problems.append(f"telemetry is off but was entered {steady} "
                            f"times outside incidents in "
                            f"{traced.attempted} requests")
    raw = {
        "workload": args.workload, "seed": args.seed,
        "operations": operations,
        "untraced_span_s": untraced.span, "traced_span_s": traced.span,
        "layer_seconds": layers.self_seconds,
        "machine": fingerprint, "problems": problems,
    }
    emit(not problems, traced.attempted, traced.failed, metrics, units,
         raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing "
              f"(run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = build(args.workload, args.seed)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return 0
        from harness import fingerprint
        if args.trace:
            traced_run(workload, args, fingerprint())
        else:
            timed_run(workload, args, fingerprint())
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
