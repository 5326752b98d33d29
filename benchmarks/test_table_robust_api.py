"""T4 — the derived robust API, quantified (Fig. 2's output as a table).

Per function: probes used, the weakest robust type of each parameter,
and whether fault injection strengthened the declared type.  Includes
the paper's worked example — strcpy's first argument "actually has to be
a pointer to a writable buffer with enough space to accommodate the
source string" — as a hard assertion.

The full-coverage half (``BENCH_robust_api.json``) quantifies the
introspection-derived check plans: functions covered, parameters with
plans, parity with the hand-tuned document on the probed subset, and
the dispatch overhead of plan-sourced checks, compiled vs the tests'
per-call reference composer (gated at ``HEALERS_DISPATCH_GATE``, like
the T2 overhead gate).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections import Counter

from repro.libc import math_registry
from repro.linker import DynamicLinker, SharedLibrary
from repro.robust import RobustAPIDocument, coverage_report, derive_check_plans
from repro.runtime import SimProcess
from repro.wrappers import PRESETS, WrapperFactory
from tests.oracles.wrappers import wrapper_backend

DISPATCH_GATE = float(os.environ.get("HEALERS_DISPATCH_GATE", "3.0"))


def test_t4_robust_api_table(campaign_result, derivations, registry,
                             manpages, artifact, benchmark):
    rows = [
        "T4 — derived robust API (weakest robust argument types)",
        f"{'function':<12} {'param':<8} {'declared':<16} "
        f"{'robust type':<22} {'rank':>4}",
    ]
    strengthened = 0
    total = 0
    for name in sorted(derivations):
        derivation = derivations[name]
        for param in derivation.params:
            total += 1
            if param.strengthened:
                strengthened += 1
            rank = param.robust_type.rank if param.robust_type else -1
            robust = param.robust_type.name if param.robust_type else "UNSAT"
            rows.append(f"{name:<12} {param.param:<8} "
                        f"{param.declared:<16} {robust:<22} {rank:>4}")
    rows.append(f"strengthened: {strengthened}/{total} parameters")
    artifact("t4_robust_api_table", "\n".join(rows))

    # the paper's worked example
    strcpy = derivations["strcpy"]
    assert strcpy.param("dest").robust_type.name == "writable_capacity"
    assert strcpy.param("src").robust_type.name == "terminated_string"

    # no parameter may be unsatisfiable on this library
    assert all(
        p.robust_type is not None
        for d in derivations.values() for p in d.params
    )
    # a majority of pointer-taking parameters get strengthened
    assert strengthened / total > 0.4
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # artifact test: run once under --benchmark-only

def test_t4_distribution_by_type(derivations, artifact, benchmark):
    """How often each robust type is the answer (the API's shape)."""
    counts = Counter(
        p.robust_type.name
        for d in derivations.values() for p in d.params if p.robust_type
    )
    rows = ["T4b — robust-type frequency"]
    for name, count in counts.most_common():
        rows.append(f"  {name:<24} {count}")
    artifact("t4_type_distribution", "\n".join(rows))
    assert counts["terminated_string"] >= 3
    assert counts["uchar_or_eof"] >= 1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # artifact test: run once under --benchmark-only

def test_t4_declaration_document_speed(benchmark, registry, manpages,
                                       derivations):
    """Building + serialising the full declaration document."""
    def build():
        return RobustAPIDocument.build(registry, manpages, derivations).to_xml()

    xml = benchmark(build)
    assert "robust-type" in xml


def test_t4_xml_parse_speed(benchmark, registry, manpages, derivations):
    """Parsing the declaration file back (a consumer's cost)."""
    xml = RobustAPIDocument.build(registry, manpages, derivations).to_xml()
    document = benchmark(lambda: RobustAPIDocument.from_xml(xml))
    assert len(document.functions) == 106


def _linker_with(registry, api_document, preset, backend="compiled"):
    linker = DynamicLinker()
    linker.add_library(SharedLibrary.from_registry(registry))
    if preset != "none":
        with wrapper_backend(backend):
            WrapperFactory(registry, api_document).preload(
                linker, PRESETS[preset])
    return linker


def test_full_coverage_check_plans(registry, manpages, derivations,
                                   api_document, artifact, benchmark):
    """BENCH_robust_api.json — the full-coverage headline numbers.

    Three claims, quantified in one artifact: (1) introspection derives
    a check plan for every function in both bundled libraries (123/123,
    no injection required); (2) on the fault-injected subset the
    introspected document reproduces the hand-tuned checks
    parameter-for-parameter; (3) the plan-sourced robustness wrapper
    pays no extra dispatch cost — the compiled wrappers still beat the
    interpreted hook chain (the reference composer in
    ``tests/oracles/wrappers.py``) by ``DISPATCH_GATE``x on a
    machinery-dominated call (same interleaved-minimum protocol as T2).
    """
    plans = derive_check_plans(registry, manpages, derivations)
    plans.update(derive_check_plans(math_registry(), manpages))
    report = coverage_report(plans)
    assert report["functions"] == 123
    assert report["params_by_source"], "every param must carry a source"
    assert sum(report["params_by_source"].values()) == report["params"]

    # (2) parity with the hand-tuned document on the probed subset
    introspected = RobustAPIDocument.build_introspected(
        registry, manpages, derivations)
    mismatches = []
    for name in sorted(derivations):
        hand = api_document.functions[name]
        derived = introspected.functions[name]
        for hp, dp in zip(hand.params, derived.params):
            if (hp.check, hp.robust_type) != (dp.check, dp.robust_type):
                mismatches.append(f"{name}.{hp.name}")
    assert not mismatches, f"derived plans diverge: {mismatches}"

    # (3) dispatch overhead of the plan-sourced robustness wrapper
    repeats, rounds = 20000, 7
    subjects = {
        "none": _linker_with(registry, introspected, "none"),
        "compiled": _linker_with(registry, introspected, "robustness",
                                 backend="compiled"),
        "interpreted": _linker_with(registry, introspected, "robustness",
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
    dispatch_speedup = overhead_interp / overhead_compiled

    payload = {
        "functions_covered": report["functions"],
        "functions_with_checks": report["functions_with_checks"],
        "params": report["params"],
        "params_with_plans": report["params_with_plans"],
        "params_by_source": report["params_by_source"],
        "relational_params": report["relational_params"],
        "hand_tuned_parity": {
            "functions_compared": len(derivations),
            "param_mismatches": len(mismatches),
        },
        "dispatch": {
            "case": "toupper via introspected robustness wrapper",
            "repeats_per_round": repeats,
            "rounds": rounds,
            "unwrapped_ns": round(best["none"], 1),
            "compiled_ns": round(best["compiled"], 1),
            "interpreted_ns": round(best["interpreted"], 1),
            "dispatch_overhead_compiled_ns": round(overhead_compiled, 1),
            "dispatch_overhead_interpreted_ns": round(overhead_interp, 1),
            "dispatch_speedup": round(dispatch_speedup, 2),
        },
        "gate": {"min_dispatch_speedup": DISPATCH_GATE},
    }
    out = pathlib.Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    (out / "BENCH_robust_api.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        "full-coverage check plans (introspection-derived)",
        f"functions covered:    {report['functions']}/123",
        f"  with checks:        {report['functions_with_checks']}",
        f"params with plans:    {report['params_with_plans']}"
        f"/{report['params']}",
        f"  relational:         {report['relational_params']}",
        f"hand-tuned parity:    {len(derivations)} functions, "
        f"{len(mismatches)} mismatches",
        f"dispatch speedup:     {dispatch_speedup:.2f}x "
        f"(gate {DISPATCH_GATE}x)",
    ]
    artifact("full_coverage_check_plans", "\n".join(rows))

    assert dispatch_speedup >= DISPATCH_GATE, (
        f"introspected robustness wrapper: compiled dispatch only "
        f"{dispatch_speedup:.2f}x faster than the interpreted hook "
        f"chain (gate: {DISPATCH_GATE}x)"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # artifact test: run once under --benchmark-only
