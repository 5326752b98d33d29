"""T2 — overhead table: "low overhead during normal operations".

Two granularities, as in [5]:
* micro — per-call cost of each wrapper type over representative calls
  (a cheap call, strlen, shows the worst-case *relative* overhead; a
  heavier call, qsort, shows the amortised case);
* macro — whole-application wall time for the bundled workloads with
  each wrapper preloaded, relative to unwrapped runs.

Shape expectations: counting wrappers (profiling/logging) cost a small
constant per call; checking wrappers (robustness/security) cost more on
trivial calls but stay a modest multiple end-to-end ("an application
should only pay the overhead for the protection it actually needs").
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.apps import CSVSTAT, WORDCOUNT, run_app, standard_files
from repro.linker import DynamicLinker, SharedLibrary
from repro.runtime import SimProcess
from repro.wrappers import PRESETS, WrapperFactory
from tests.oracles.wrappers import wrapper_backend

WRAPPERS = ["none", "profiling", "logging", "robustness", "security",
            "hardened"]

#: minimum dispatch speedup of the compiled wrappers over the tests'
#: per-call reference composer on the checking wrappers; CI relaxes
#: this to 2.0 on shared (noisy) runners
DISPATCH_GATE = float(os.environ.get("HEALERS_DISPATCH_GATE", "3.0"))


def linker_with(registry, api_document, preset, backend="compiled"):
    linker = DynamicLinker()
    linker.add_library(SharedLibrary.from_registry(registry))
    if preset != "none":
        with wrapper_backend(backend):
            WrapperFactory(registry, api_document).preload(
                linker, PRESETS[preset])
    return linker


def call_cost_ns(linker, name, args_factory, repeats=2000):
    symbol = linker.resolve(name).symbol
    proc, args = args_factory()
    start = time.perf_counter_ns()
    for _ in range(repeats):
        symbol(proc, *args)
    return (time.perf_counter_ns() - start) / repeats


def test_t2_overhead_table(registry, api_document, artifact, benchmark):
    """The full micro + macro table with relative factors."""

    def strlen_case():
        proc = SimProcess()
        return proc, (proc.alloc_cstring(b"a moderately long string"),)

    def memcpy_case():
        proc = SimProcess()
        return proc, (proc.alloc_buffer(256), proc.alloc_bytes(b"q" * 256),
                      256)

    micro_cases = {"strlen": strlen_case, "memcpy": memcpy_case}
    micro = {}
    for preset in WRAPPERS:
        linker = linker_with(registry, api_document, preset)
        micro[preset] = {
            case: call_cost_ns(linker, case, factory)
            for case, factory in micro_cases.items()
        }

    files = standard_files()
    macro = {}
    for preset in WRAPPERS:
        linker = linker_with(registry, api_document, preset)
        start = time.perf_counter_ns()
        for _ in range(3):
            assert run_app(WORDCOUNT, linker, argv=["/data/sample.txt"],
                           files=files).succeeded
            assert run_app(CSVSTAT, linker, argv=["/data/values.csv"],
                           files=files).succeeded
        macro[preset] = (time.perf_counter_ns() - start) / 3

    rows = [
        "T2 — wrapper overhead (relative to unwrapped)",
        f"{'wrapper':<12} {'strlen µ':>10} {'memcpy µ':>10} "
        f"{'apps macro':>11}",
    ]
    for preset in WRAPPERS:
        rows.append(
            f"{preset:<12} "
            f"{micro[preset]['strlen'] / micro['none']['strlen']:>9.2f}x "
            f"{micro[preset]['memcpy'] / micro['none']['memcpy']:>9.2f}x "
            f"{macro[preset] / macro['none']:>10.2f}x"
        )
    artifact("t2_overhead_table", "\n".join(rows))

    # shape: profiling stays cheap per call; every wrapper's macro
    # overhead is a small multiple; relative cost shrinks on heavier calls
    assert micro["profiling"]["strlen"] / micro["none"]["strlen"] < 2.0
    for preset in WRAPPERS[1:]:
        assert macro[preset] / macro["none"] < 4.0, preset
    assert (micro["robustness"]["memcpy"] / micro["none"]["memcpy"]
            < micro["robustness"]["strlen"] / micro["none"]["strlen"] * 1.5)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # artifact test: run once under --benchmark-only

def test_dispatch_fastpath_speedup(registry, api_document, artifact):
    """Compiled vs interpreted dispatch: the fast-path gate.

    Measures the *dispatch overhead* (wrapped minus unwrapped per-call
    cost) of each wrapper type, compiled and composed by the tests'
    per-call reference composer (``tests/oracles/wrappers.py``), on a
    machinery-dominated call (``toupper``: the base call is trivial, so
    nearly all wrapped time is wrapper machinery).  Rounds interleave
    the subjects and keep the per-subject minimum, so CPU frequency
    drift between subjects cancels out.  Writes BENCH_overhead.json and
    gates the checking wrappers (robustness, security) at
    ``DISPATCH_GATE``x.
    """
    repeats, rounds = 20000, 7
    results = {}
    for preset in WRAPPERS[1:]:
        subjects = {
            "none": linker_with(registry, api_document, "none"),
            "compiled": linker_with(registry, api_document, preset,
                                    backend="compiled"),
            "interpreted": linker_with(registry, api_document, preset,
                                       backend="interpreted"),
        }
        symbols = {k: lk.resolve("toupper").symbol
                   for k, lk in subjects.items()}
        proc = SimProcess()
        for symbol in symbols.values():  # warm resolution + caches
            symbol(proc, ord("a"))
        best = {k: float("inf") for k in symbols}
        for _ in range(rounds):
            for kind, symbol in symbols.items():
                start = time.perf_counter_ns()
                for _ in range(repeats):
                    symbol(proc, ord("a"))
                cost = (time.perf_counter_ns() - start) / repeats
                best[kind] = min(best[kind], cost)
        overhead_compiled = max(best["compiled"] - best["none"], 1e-9)
        overhead_interp = max(best["interpreted"] - best["none"], 1e-9)
        results[preset] = {
            "unwrapped_ns": round(best["none"], 1),
            "compiled_ns": round(best["compiled"], 1),
            "interpreted_ns": round(best["interpreted"], 1),
            "compiled_calls_per_sec": round(1e9 / best["compiled"]),
            "interpreted_calls_per_sec": round(1e9 / best["interpreted"]),
            "dispatch_overhead_compiled_ns": round(overhead_compiled, 1),
            "dispatch_overhead_interpreted_ns": round(overhead_interp, 1),
            "dispatch_speedup": round(overhead_interp / overhead_compiled,
                                      2),
        }

    payload = {
        "case": "toupper (machinery-dominated call)",
        "repeats_per_round": repeats,
        "rounds": rounds,
        "gate": {"wrappers": ["robustness", "security"],
                 "min_dispatch_speedup": DISPATCH_GATE},
        "wrappers": results,
    }
    out = pathlib.Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    (out / "BENCH_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = ["dispatch speedup: compiled vs interpreted reference (toupper)",
            f"{'wrapper':<12} {'compiled':>12} {'interpreted':>12} "
            f"{'speedup':>8}"]
    for preset, row in results.items():
        rows.append(
            f"{preset:<12} {row['compiled_calls_per_sec']:>10}/s "
            f"{row['interpreted_calls_per_sec']:>10}/s "
            f"{row['dispatch_speedup']:>7.2f}x"
        )
    artifact("dispatch_speedup", "\n".join(rows))

    for preset in ("robustness", "security"):
        assert results[preset]["dispatch_speedup"] >= DISPATCH_GATE, (
            f"{preset}: compiled dispatch only "
            f"{results[preset]['dispatch_speedup']}x faster than the "
            f"interpreted hook chain (gate: {DISPATCH_GATE}x)"
        )


@pytest.mark.parametrize("preset", WRAPPERS)
def test_t2_macro_wordcount(benchmark, registry, api_document, preset):
    """pytest-benchmark series: wordcount under each wrapper type."""
    linker = linker_with(registry, api_document, preset)
    files = standard_files()

    def run():
        return run_app(WORDCOUNT, linker, argv=["/data/sample.txt"],
                       files=files)

    result = benchmark(run)
    assert result.succeeded


@pytest.mark.parametrize("preset", ["none", "robustness", "security"])
def test_t2_micro_strcpy(benchmark, registry, api_document, preset):
    """pytest-benchmark series: one strcpy under the checking wrappers."""
    linker = linker_with(registry, api_document, preset)
    symbol = linker.resolve("strcpy").symbol
    proc = SimProcess()
    dest = proc.alloc_buffer(64)
    src = proc.alloc_cstring(b"payload string")
    result = benchmark(lambda: symbol(proc, dest, src))
    assert result == dest
