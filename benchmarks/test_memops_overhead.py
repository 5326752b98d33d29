"""P4 — memory-substrate throughput: vectorized vs scalar reference.

The vectorized substrate replaces the byte-at-a-time simulation loops with
bulk slice operations plus exact fault/fuel replay; the original loops
survive as the per-byte oracles in ``tests/oracles``.  This benchmark
measures MB/s for the three hottest patterns — ``memcpy`` (bulk copy),
``strlen`` (terminator scan) and the allocator's canary integrity sweep
(against the per-word header walk) — on 64 KiB working sets under both,
writes ``benchmarks/out/BENCH_memops.json`` and gates the vectorized
paths at ``HEALERS_MEMOPS_GATE``x (default 5x) the scalar throughput.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.libc import helpers
from repro.memory import PAGE_SIZE, Perm
from repro.runtime import SimProcess
from tests.oracles import HELPERS, per_word_integrity, scalar_process

BUFFER = 64 * 1024

#: minimum vectorized-over-scalar throughput ratio on 64 KiB working sets
MEMOPS_GATE = float(os.environ.get("HEALERS_MEMOPS_GATE", "5.0"))


def make_proc(scalar: bool, **kwargs) -> SimProcess:
    return scalar_process(**kwargs) if scalar else SimProcess(**kwargs)


def helper(name: str, scalar: bool):
    """The libc helper ``name``, or its per-byte oracle."""
    return HELPERS[name] if scalar else getattr(helpers, name)


def best_seconds(fn, repeats: int, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter_ns() - start) / repeats)
    return best / 1e9


def memcpy_case(scalar: bool) -> float:
    """Bytes/s for a 64 KiB libc-level memcpy loop."""
    proc = make_proc(scalar)
    region = proc.space.map_region(2 * BUFFER + PAGE_SIZE, Perm.RW, "bench")
    src, dest = region.start, region.start + BUFFER
    proc.space.fill(src, 0x5A, BUFFER)
    repeats = 1 if scalar else 50
    copy = helper("copy_bytes_forward", scalar)
    seconds = best_seconds(lambda: copy(proc, dest, src, BUFFER), repeats)
    return BUFFER / seconds


def strlen_case(scalar: bool) -> float:
    """Bytes/s for a 64 KiB terminator scan."""
    proc = make_proc(scalar)
    region = proc.space.map_region(BUFFER + PAGE_SIZE, Perm.RW, "bench")
    proc.space.fill(region.start, 0x41, BUFFER - 1)
    proc.space.write(region.start + BUFFER - 1, b"\x00")
    repeats = 1 if scalar else 50
    scan = helper("scan_string_length", scalar)
    seconds = best_seconds(lambda: scan(proc, region.start), repeats)
    return BUFFER / seconds


def canary_case(scalar: bool) -> float:
    """Bytes/s of heap walked by the canary integrity sweep."""
    proc = make_proc(scalar, heap_canaries=True)
    for _ in range(512):
        proc.malloc(96)
    heap = proc.heap
    walked = heap._brk - heap.mapping.start
    assert walked >= BUFFER  # the sweep covers a 64 KiB-class working set
    sweep = (lambda: per_word_integrity(heap)) if scalar else \
        heap.check_integrity
    assert sweep() == []
    repeats = 2 if scalar else 20
    seconds = best_seconds(sweep, repeats)
    return walked / seconds


CASES = {
    "memcpy": memcpy_case,
    "strlen": strlen_case,
    "canary_scan": canary_case,
}


def test_memops_throughput_gate(artifact):
    results = {}
    for name, case in CASES.items():
        scalar_bps = case(scalar=True)
        vector_bps = case(scalar=False)
        results[name] = {
            "scalar_mb_per_sec": round(scalar_bps / 1e6, 2),
            "vectorized_mb_per_sec": round(vector_bps / 1e6, 2),
            "speedup": round(vector_bps / scalar_bps, 1),
        }

    payload = {
        "working_set_bytes": BUFFER,
        "gate": {"min_speedup": MEMOPS_GATE},
        "cases": results,
    }
    out = pathlib.Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    (out / "BENCH_memops.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = ["P4 — memory substrate throughput (64 KiB working sets)",
            f"{'case':<14} {'scalar':>12} {'vectorized':>12} {'speedup':>9}"]
    for name, row in results.items():
        rows.append(
            f"{name:<14} {row['scalar_mb_per_sec']:>9.2f}MB/s "
            f"{row['vectorized_mb_per_sec']:>9.2f}MB/s "
            f"{row['speedup']:>8.1f}x"
        )
    artifact("p4_memops_throughput", "\n".join(rows))

    for name, row in results.items():
        assert row["speedup"] >= MEMOPS_GATE, (
            f"{name}: vectorized only {row['speedup']}x the scalar "
            f"backend (gate: {MEMOPS_GATE}x)"
        )
