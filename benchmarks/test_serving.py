"""P8 — serving throughput: requests/sec with cross-call wrapper fusion.

The serving benchmark drives each bundled server app (kvd, httpd,
tmpld) through a :class:`ServingSession` on the deterministic hot
request mix and reports requests/sec for every preset — unwrapped
baseline plus the four wrapped presets — with the fused fast path on
and off.  Fused and unfused lanes replay byte-identical streams and
must agree on stdout, errno and fuel, so every throughput row doubles
as a differential check.

Methodology: the fused/unfused lanes run *paired* (alternating drives
inside each round) with a ``gc.collect`` before each round, and the
reported figure is the best of ``HEALERS_SERVING_ROUNDS`` rounds —
paired best-of-k cancels most scheduler/allocator drift between lanes.

The headline number is the hot-mix fused-over-unfused speedup on the
``robustness`` preset — the full argument-checking configuration whose
per-call guard work fusion exists to amortize — taken over the app
where interposition dominates the request (the peak app, named in the
payload).  ``HEALERS_SERVING_GATE`` (default 1.5) gates that headline;
shared CI runners can relax it.

Writes ``benchmarks/out/BENCH_serving.json`` and the
``p8_serving_table`` artifact; the fusion ablation (fusion off / check
memo off / resolver cache off) appends its section to both.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time

import pytest

from repro.apps import SERVER_APPS
from repro.serving import LoadGenerator, ServingSession
from repro.wrappers import ResolverTable
from repro.wrappers.presets import full_coverage_api

#: minimum fused-over-unfused hot-mix speedup on the headline preset
SERVING_GATE = float(os.environ.get("HEALERS_SERVING_GATE", "1.5"))
WRAPPED_PRESETS = ("robustness", "security", "hardened", "recovery")
HEADLINE_PRESET = "robustness"
REQUESTS = int(os.environ.get("HEALERS_SERVING_REQUESTS", "800"))
ROUNDS = int(os.environ.get("HEALERS_SERVING_ROUNDS", "3"))
SEED = 7

OUT = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="module")
def serving_api(registry, manpages):
    return full_coverage_api(registry, manpages)


def build_session(app, preset, registry, api, gen, *, fused,
                  resolver=None, check_memo=True):
    """One warmed session: traces recorded (fused), warmup served."""
    session = ServingSession(
        app, preset=preset, registry=registry, api=api, fused=fused,
        check_memo=check_memo, resolver=resolver,
    )
    if fused:
        session.record_traces(gen.warmup, gen.samples)
    session.serve_all(gen.warmup)
    session.drive(gen.stream(200))  # untimed: warm traces and memos
    return session


def paired_best(sessions, gen, requests=REQUESTS, rounds=ROUNDS):
    """Best rps per session over paired rounds (same streams, alternated)."""
    best = [0.0] * len(sessions)
    stats = [None] * len(sessions)
    for _ in range(rounds):
        gc.collect()
        for index, session in enumerate(sessions):
            result = session.drive(gen.stream(requests))
            if result.rps > best[index]:
                best[index] = result.rps
                stats[index] = result
    return best, stats


def assert_identical(fused, unfused):
    """The differential contract every throughput row must satisfy."""
    assert fused.stdout_text() == unfused.stdout_text()
    assert fused.process.fuel_used == unfused.process.fuel_used
    assert fused.process.errno == unfused.process.errno


def test_p8_serving_throughput(registry, serving_api, artifact):
    """BENCH_serving.json — the req/s matrix and the fusion headline."""
    apps = {}
    headline = {"preset": HEADLINE_PRESET, "app": None, "speedup": 0.0}
    for app in SERVER_APPS:
        gen = LoadGenerator(app.name, mix="hot", seed=SEED)
        rows = {}
        base = build_session(app, "unwrapped", registry, serving_api, gen,
                             fused=False)
        (base_rps,), _ = paired_best([base], gen)
        rows["unwrapped"] = {"rps": round(base_rps, 1)}
        for preset in WRAPPED_PRESETS:
            resolver = ResolverTable()
            fused = build_session(app, preset, registry, serving_api, gen,
                                  fused=True, resolver=resolver)
            unfused = build_session(app, preset, registry, serving_api,
                                    gen, fused=False, resolver=resolver)
            (rps_f, rps_u), (stat_f, _) = paired_best([fused, unfused],
                                                      gen)
            assert_identical(fused, unfused)
            assert stat_f.deopts == 0
            assert stat_f.trace_hits == stat_f.requests
            speedup = rps_f / rps_u if rps_u else 0.0
            rows[preset] = {
                "fused_rps": round(rps_f, 1),
                "unfused_rps": round(rps_u, 1),
                "fused_speedup": round(speedup, 2),
                "overhead_vs_unwrapped": round(base_rps / rps_f, 2)
                if rps_f else None,
                "trace_hits": stat_f.trace_hits,
                "deopts": stat_f.deopts,
            }
            if (preset == HEADLINE_PRESET
                    and speedup > headline["speedup"]):
                headline["app"] = app.name
                headline["speedup"] = round(speedup, 2)
        apps[app.name] = rows

    payload = {
        "mix": "hot",
        "seed": SEED,
        "requests_per_round": REQUESTS,
        "rounds": ROUNDS,
        "gate": {"min_hot_mix_speedup": SERVING_GATE},
        "hot_mix_speedup": headline,
        "apps": apps,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / "BENCH_serving.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = ["P8 — serving throughput, hot mix (requests/sec)",
            f"{'app':<7} {'preset':<11} {'unfused':>9} {'fused':>9} "
            f"{'speedup':>8} {'vs unwrapped':>13}"]
    for app_name, presets in apps.items():
        base_rps = presets["unwrapped"]["rps"]
        rows.append(f"{app_name:<7} {'unwrapped':<11} {'-':>9} "
                    f"{base_rps:>9.0f} {'-':>8} {'1.00x':>13}")
        for preset in WRAPPED_PRESETS:
            row = presets[preset]
            rows.append(
                f"{app_name:<7} {preset:<11} {row['unfused_rps']:>9.0f} "
                f"{row['fused_rps']:>9.0f} {row['fused_speedup']:>7.2f}x "
                f"{row['overhead_vs_unwrapped']:>12.2f}x"
            )
    rows.append(f"hot-mix headline: {headline['app']} "
                f"{HEADLINE_PRESET} {headline['speedup']:.2f}x "
                f"(gate {SERVING_GATE}x)")
    artifact("p8_serving_table", "\n".join(rows))

    assert headline["speedup"] >= SERVING_GATE, (
        f"fused fast path only {headline['speedup']}x unfused on the "
        f"hot mix ({headline['app']}, {HEADLINE_PRESET}); "
        f"gate: {SERVING_GATE}x"
    )


def test_p8_fusion_ablation(registry, serving_api, artifact):
    """Which fusion layer buys what: drop one lever at a time.

    Runs the headline cell (peak app on the robustness preset — httpd,
    whose request is wrapper-interposition dominated) with each layer
    disabled in isolation, plus the resolver-table ablation, which is a
    *build-time* lever: repeated (app, preset) session builds with and
    without the shared table.
    """
    app = next(a for a in SERVER_APPS if a.name == "httpd")
    gen = LoadGenerator(app.name, mix="hot", seed=SEED)
    variants = {
        "full": dict(fused=True),
        "fusion_off": dict(fused=False),
        "check_memo_off": dict(fused=True, check_memo=False),
    }
    sessions = {
        name: build_session(app, HEADLINE_PRESET, registry, serving_api,
                            gen, **kwargs)
        for name, kwargs in variants.items()
    }
    order = list(sessions)
    best, _ = paired_best([sessions[name] for name in order], gen)
    rps = dict(zip(order, best))
    for name in order[1:]:
        assert_identical(sessions[name], sessions["full"])

    # the resolver table is a build-time lever: dlsym(RTLD_NEXT) is
    # lazy, so "build" here is session construction plus the first
    # request of each kind (which forces every import's resolution)
    def build_seconds(resolver):
        best_run = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            session = ServingSession(
                app, preset=HEADLINE_PRESET, registry=registry,
                api=serving_api, fused=True, resolver=resolver)
            session.serve_all(gen.stream(20))
            best_run = min(best_run, time.perf_counter() - start)
        return best_run

    shared = ResolverTable()
    build_seconds(shared)  # first build populates the table
    resolver_on = build_seconds(shared)
    resolver_off = build_seconds(None)

    ablation = {
        "cell": {"app": app.name, "preset": HEADLINE_PRESET},
        "rps": {name: round(value, 1) for name, value in rps.items()},
        "relative": {
            name: round(value / rps["full"], 2) if rps["full"] else None
            for name, value in rps.items()
        },
        "resolver_cache": {
            "note": "build-time lever: session construction plus the "
                    "first request of each kind (lazy dlsym)",
            "rebuild_s_cached": round(resolver_on, 4),
            "rebuild_s_uncached": round(resolver_off, 4),
            "table_hits": shared.hits,
            "table_misses": shared.misses,
            "build_speedup": round(resolver_off / resolver_on, 2)
            if resolver_on else None,
        },
    }
    bench_path = OUT / "BENCH_serving.json"
    payload = (json.loads(bench_path.read_text())
               if bench_path.exists() else {})
    payload["ablation"] = ablation
    OUT.mkdir(exist_ok=True)
    bench_path.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [f"P8 ablation — {app.name}/{HEADLINE_PRESET} hot mix",
            f"{'variant':<18} {'rps':>9} {'vs full':>8}"]
    for name in order:
        rows.append(f"{name:<18} {rps[name]:>9.0f} "
                    f"{rps[name] / rps['full']:>7.2f}x")
    rows.append(
        f"resolver cache: rebuild {resolver_on * 1e3:.1f}ms cached vs "
        f"{resolver_off * 1e3:.1f}ms uncached"
    )
    table_path = OUT / "p8_serving_table.txt"
    text = "\n".join(rows)
    if table_path.exists():
        text = table_path.read_text().rstrip() + "\n\n" + text
    artifact("p8_serving_table", text)

    # every lever must at least not hurt the full configuration
    slowest = min(rps, key=rps.get)
    assert rps["full"] >= rps[slowest] * 0.95 or slowest == "full"
