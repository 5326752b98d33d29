"""P9 — collection fabric soak: throughput, backpressure, zero loss.

Compares the thread-per-connection reference :class:`CollectionServer`
(``tests/oracles``) against the sharded non-blocking :class:`IngestServer` fabric on the
same document stream at growing connection counts, then soaks the
fabric with ≥1000 concurrent shippers (every one holding its own open
connection), a paced :class:`CollectionSink` segment that must finish
with ``dropped == 0``, and a chaos net-reset/slow-peer schedule under
which every acked document must be stored or spool-replayed after a
server restart (the zero-loss contract).

The headline is the fabric-over-legacy documents/sec ratio at the
highest connection count; ``HEALERS_COLLECTION_GATE`` (default 5.0)
gates it — shared CI runners can relax it.  ``HEALERS_SOAK_SHIPPERS``
(default 1000) scales the soak; CI uses 128.

Writes ``benchmarks/out/BENCH_collection.json`` and the
``p9_collection_soak`` table artifact.  The ablation test appends its
section (shards off, spool off, credits off) to both.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import pytest

from repro.chaos import ChaosInjector, ChaosPlan
from repro.collection import (
    FabricClient,
    IngestServer,
    submit_documents,
)
from repro.profiling import ProfileDocument
from repro.telemetry import CollectionSink
from repro.wrappers.state import WrapperState
from tests.oracles import CollectionServer

#: minimum fabric-over-legacy docs/sec ratio at the top connection count
COLLECTION_GATE = float(os.environ.get("HEALERS_COLLECTION_GATE", "5.0"))
SOAK_SHIPPERS = int(os.environ.get("HEALERS_SOAK_SHIPPERS", "1000"))
SOAK_DOCS_EACH = int(os.environ.get("HEALERS_SOAK_DOCS", "4"))
#: (connections, batch frames per connection) sweep for the comparison
SWEEP = ((16, 8), (64, 8), (256, 4))
BATCH = 8
SHARDS = 4

OUT = pathlib.Path(__file__).parent / "out"
BENCH_PATH = OUT / "BENCH_collection.json"


def _document_xml(application="bench", calls=3):
    state = WrapperState()
    state.calls["strlen"] = calls
    state.exectime_ns["strlen"] = 100 * calls
    return ProfileDocument.from_state(state, application, "profiling").to_xml()


#: per-shipper documents: a fleet ships many applications, and the
#: application is the fabric's shard-routing key — a single-app stream
#: would serialise every frame onto one shard
_WORKER_DOCS = {}


def _worker_doc(worker: int) -> str:
    if worker not in _WORKER_DOCS:
        _WORKER_DOCS[worker] = _document_xml(f"app{worker}")
    return _WORKER_DOCS[worker]


def _update_bench(section: str, payload) -> None:
    OUT.mkdir(exist_ok=True)
    data = {}
    if BENCH_PATH.exists():
        data = json.loads(BENCH_PATH.read_text())
    data[section] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _drive_legacy(conns: int, frames_each: int) -> float:
    """Legacy server: one connection (and server thread) per frame."""
    with CollectionServer() as server:
        def shipper(worker):
            doc = _worker_doc(worker)
            for _ in range(frames_each):
                submit_documents(server.address, [doc] * BATCH)

        threads = [threading.Thread(target=shipper, args=(w,))
                   for w in range(conns)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        total = conns * frames_each * BATCH
        assert len(server.store) == total
        assert not server.errors
    return total / elapsed


def _drive_fabric(conns: int, frames_each: int, *, shards=SHARDS,
                  spool_dir=None, credit_limit=64) -> float:
    """Fabric: one persistent credit-paced connection per shipper."""
    with IngestServer(shards=shards, spool_dir=spool_dir,
                      credit_limit=credit_limit) as server:
        def shipper(worker):
            doc = _worker_doc(worker)
            client = FabricClient(server.address, shipper=f"w{worker}",
                                  window=credit_limit)
            for _ in range(frames_each):
                client.ship([doc] * BATCH, wait=False)
            client.flush()
            client.close()

        threads = [threading.Thread(target=shipper, args=(w,))
                   for w in range(conns)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        total = conns * frames_each * BATCH
        assert len(server.store) == total
        assert not server.errors
    return total / elapsed


def test_p9_throughput_vs_legacy(artifact):
    """BENCH_collection.json — docs/sec sweep and the ≥5x headline."""
    rows = []
    for conns, frames_each in SWEEP:
        # paired best-of-2 rounds cancels most scheduler drift
        legacy = max(_drive_legacy(conns, frames_each)
                     for _ in range(2))
        fabric = max(_drive_fabric(conns, frames_each)
                     for _ in range(2))
        rows.append({
            "connections": conns,
            "documents": conns * frames_each * BATCH,
            "legacy_docs_per_sec": round(legacy, 1),
            "fabric_docs_per_sec": round(fabric, 1),
            "speedup": round(fabric / legacy, 2),
        })
    headline = rows[-1]
    _update_bench("throughput", {
        "sweep": rows,
        "headline": {
            "connections": headline["connections"],
            "speedup": headline["speedup"],
        },
        "gate": {"min_speedup_at_top_connections": COLLECTION_GATE},
    })
    lines = [
        "P9a — collection fabric vs legacy server (docs/sec)",
        f"{'conns':>6} {'legacy':>10} {'fabric':>10} {'speedup':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['connections']:>6} {row['legacy_docs_per_sec']:>10,.0f}"
            f" {row['fabric_docs_per_sec']:>10,.0f}"
            f" {row['speedup']:>7.2f}x")
    artifact("p9_collection_throughput", "\n".join(lines) + "\n")
    assert headline["speedup"] >= COLLECTION_GATE, (
        f"fabric is only {headline['speedup']}x legacy at "
        f"{headline['connections']} connections; "
        f"gate: {COLLECTION_GATE}x")


def test_p9_fleet_soak(artifact):
    """≥1000 concurrent shippers, all connections open at once, and a
    paced CollectionSink segment that must drop nothing."""
    drivers = max(1, min(100, SOAK_SHIPPERS // 10))
    with IngestServer(shards=SHARDS) as server:
        clients = [FabricClient(server.address, shipper=f"s{i}")
                   for i in range(SOAK_SHIPPERS)]

        def drive(worker):
            mine = clients[worker::drivers]
            for client in mine:
                client.ship([_worker_doc(worker)] * SOAK_DOCS_EACH,
                            wait=False)
            for client in mine:
                client.flush()

        threads = [threading.Thread(target=drive, args=(w,))
                   for w in range(drivers)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        concurrent = len(server._connections)
        total = SOAK_SHIPPERS * SOAK_DOCS_EACH
        assert len(server.store) == total
        assert concurrent >= SOAK_SHIPPERS  # every shipper held its line
        for client in clients:
            client.close()

        # paced-sink segment: backpressure must pace, never drop
        sink = CollectionSink(server.address, batch_size=16,
                              flush_interval=0.01, pace=True,
                              max_pending=128)
        sink_docs = 500
        for i in range(sink_docs):
            sink.ship(_document_xml(f"sink{i % 8}", calls=i + 1))
        summary = sink.close()
        assert summary["dropped"] == 0
        assert sink.dropped == 0
        assert summary["shipped"] == sink_docs
        assert len(server.store) == total + sink_docs

    soak = {
        "shippers": SOAK_SHIPPERS,
        "documents": total,
        "concurrent_connections": concurrent,
        "docs_per_sec": round(total / elapsed, 1),
        "sink_documents": sink_docs,
        "sink_dropped": summary["dropped"],
    }
    _update_bench("soak", soak)
    artifact("p9_collection_soak", (
        "P9b — fleet soak\n"
        f"shippers              {SOAK_SHIPPERS:>8}\n"
        f"concurrent conns      {concurrent:>8}\n"
        f"documents             {total:>8}\n"
        f"docs/sec              {soak['docs_per_sec']:>8,.0f}\n"
        f"paced sink documents  {sink_docs:>8}\n"
        f"paced sink dropped    {summary['dropped']:>8}\n"))


def test_p9_chaos_zero_loss(tmp_path):
    """acked ⇒ stored-or-replayed under net-reset/slow-peer chaos."""
    spool = str(tmp_path / "spool")
    shippers, docs_each = 8, 12
    shipped = [[] for _ in range(shippers)]
    plan_seed = 11
    with IngestServer(shards=SHARDS, spool_dir=spool) as server:
        def shipper(worker):
            plan = ChaosPlan.for_trial(
                plan_seed, worker, sites=("net-reset", "net-slow"),
                rate=0.25)
            injector = ChaosInjector(plan)
            client = FabricClient(server.address,
                                  shipper=f"chaos{worker}",
                                  retry_backoff=0.001)
            injector.arm_fabric(client)
            for i in range(docs_each):
                xml = _document_xml(f"chaos{worker}", calls=i + 1)
                client.ship([xml])
                shipped[worker].append(xml)
            client.flush()
            client.close()

        threads = [threading.Thread(target=shipper, args=(w,))
                   for w in range(shippers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        acked = sorted(xml for per in shipped for xml in per)
        stored = sorted(d.raw_xml for d in server.store.documents)
        assert stored == acked  # exactly once despite the resets

    # the crash-restart half of the contract: a fresh server replays
    # the spool and still holds every acked document
    with IngestServer(shards=SHARDS, spool_dir=spool) as reborn:
        replayed = sorted(d.raw_xml for d in reborn.store.documents)
        assert replayed == acked
    _update_bench("chaos_zero_loss", {
        "shippers": shippers,
        "documents_acked": len(acked),
        "documents_stored": len(stored),
        "documents_after_restart": len(replayed),
        "lost": 0,
    })


def test_p9_ablations(artifact):
    """Each fabric pillar earns its keep: shards, spool, credits."""
    conns, frames_each = 64, 6
    total = conns * frames_each * BATCH
    lanes = {
        "full": dict(shards=SHARDS, spool_dir=None, credit_limit=64),
        "shards-off": dict(shards=1, spool_dir=None, credit_limit=64),
        "credits-off": dict(shards=SHARDS, spool_dir=None,
                            credit_limit=1),
    }
    rates = {}
    for name, kwargs in lanes.items():
        rates[name] = max(_drive_fabric(conns, frames_each, **kwargs)
                          for _ in range(2))
    # spool-on needs a disk-backed lane of its own
    import tempfile

    def spooled():
        with tempfile.TemporaryDirectory() as spool_dir:
            return _drive_fabric(conns, frames_each, shards=SHARDS,
                                 spool_dir=spool_dir)

    rates["spool-on"] = max(spooled() for _ in range(2))
    section = {
        name: {"docs_per_sec": round(rate, 1),
               "relative_to_full": round(rate / rates["full"], 3)}
        for name, rate in rates.items()
    }
    section["config"] = {"connections": conns, "documents": total}
    _update_bench("ablations", section)
    lines = [
        "P9c — fabric ablations (64 connections, docs/sec)",
        f"{'lane':<12} {'docs/sec':>10} {'vs full':>8}",
    ]
    for name in ("full", "shards-off", "credits-off", "spool-on"):
        row = section[name]
        lines.append(f"{name:<12} {row['docs_per_sec']:>10,.0f} "
                     f"{row['relative_to_full']:>7.2f}x")
    artifact("p9_collection_ablations", "\n".join(lines) + "\n")
    # correctness holds in every lane (asserted inside _drive_fabric);
    # credits-off must still be lossless, merely slower
    assert rates["credits-off"] > 0
